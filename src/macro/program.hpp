#pragma once
// Micro-program interface to the IMC macro -- the software-visible face of
// the "Ctrl." block in the paper's Fig 3.
//
// A Program is a list of instructions (op, operand rows, precision,
// destination). The verifier (macro/verifier.hpp) checks it once against an
// array geometry and seals it as a VerifiedProgram; the MacroController
// executes only sealed programs on an ImcMacro, accumulating per-program
// cycle/energy statistics and recording an optional trace. This is how a
// host integrates the macro: build row-level programs, verify them, run
// them, read results -- without touching the per-op C++ API directly.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "macro/imc_macro.hpp"

namespace bpim::macro {

/// One row-level instruction. Unused fields are ignored per op kind:
///   * logic ops use `logic_fn`, rows a+b;
///   * NOT/COPY/SHIFT use row a and `dest` (required);
///   * ADD uses rows a+b and optional `dest`; ADD-Shift requires `dest`;
///   * SUB/MULT use rows a+b (results: SUB driven out, MULT in dummy D2).
struct Instruction {
  Op op = Op::Add;
  periph::LogicFn logic_fn = periph::LogicFn::And;
  array::RowRef a{};
  array::RowRef b{};
  std::optional<array::RowRef> dest{};
  unsigned bits = 8;
};

/// "R<i>" for a main row, "D<i>" for a dummy row.
[[nodiscard]] std::string to_string(const array::RowRef& r);
[[nodiscard]] std::string to_string(const Instruction& inst);

/// Instruction list. The builder methods check their own arguments; whole-
/// program validity against an array is the verifier's job.
class Program {
 public:
  Program() = default;

  Program& logic(periph::LogicFn fn, array::RowRef a, array::RowRef b);
  Program& unary(Op op, array::RowRef src, array::RowRef dest, unsigned bits);
  Program& add(array::RowRef a, array::RowRef b, unsigned bits,
               std::optional<array::RowRef> dest = std::nullopt);
  Program& add_shift(array::RowRef a, array::RowRef b, unsigned bits, array::RowRef dest);
  Program& sub(array::RowRef a, array::RowRef b, unsigned bits);
  Program& mult(array::RowRef a, array::RowRef b, unsigned bits);

  /// Append a raw instruction with none of the builder methods' argument
  /// checks -- the entry point for code that assembles Instructions itself
  /// (a macro compiler, fuzzers, verifier tests). Like every Program, it
  /// only runs once macro::verify has sealed it.
  Program& push(Instruction inst) {
    instructions_.push_back(std::move(inst));
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return instructions_.size(); }
  [[nodiscard]] bool empty() const { return instructions_.empty(); }
  [[nodiscard]] const std::vector<Instruction>& instructions() const { return instructions_; }

  /// Total cycle cost per Table 1 (static, before execution).
  [[nodiscard]] std::uint64_t static_cycles() const;

  /// Disassembly: one instruction per line ("#k  MULT R4, R1 @8b  ; ..."),
  /// annotated with the scratch-row roles each op implies. The text the
  /// verifier's diagnostics and test failure messages lean on.
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<Instruction> instructions_;
};

/// Per-instruction execution record.
struct TraceEntry {
  Instruction inst;
  unsigned cycles = 0;
  Joule op_energy{0.0};
  BitVector result;  ///< row-wide result driven out (empty for pure WB ops)
  /// Cycles the adaptive policy saved on this instruction (MULT narrowing/
  /// skipping; 0 for other ops or when the policy is off).
  unsigned adaptive_cycles_saved = 0;
};

/// Per-program account, derived from the instruction stream: run() prices
/// every instruction through macro::CostModel (cycles from timing/, joules
/// from energy/) and cross-checks the executing macro's ledger -- the two
/// agree exactly (cycles asserted per instruction, energy bitwise in tests).
struct ProgramStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  /// Cycles the chained-MAC execution path saved vs Table 1's per-op cost
  /// (0 unless run() was asked to fuse). `cycles` is already net of this.
  std::uint64_t fused_cycles_saved = 0;
  /// Cycles the adaptive policy saved (MULT iteration narrowing + zero
  /// skipping; 0 unless run() was given an enabled AdaptivePolicy).
  /// `cycles` is already net of this, and the three-way split is exact:
  /// static_cycles == cycles + fused_cycles_saved + adaptive_cycles_saved.
  std::uint64_t adaptive_cycles_saved = 0;
  Joule energy{0.0};
  Second elapsed{0.0};
};

class VerifiedProgram;  // macro/verifier.hpp

/// Executes verified programs against a macro. The verifier already
/// rejected every malformed program, so run() checks only that the program
/// was verified against this macro's geometry.
class MacroController {
 public:
  explicit MacroController(ImcMacro& m) : macro_(m) {}

  /// Runs `vp`; returns stats. If `trace` is non-null, appends one entry per
  /// instruction. Throws std::invalid_argument, with the macro untouched,
  /// when `vp` was verified against a different array geometry.
  ///
  /// With `fuse_mac_chains` set, back-to-back MULTs at one precision run on
  /// the chained datapath: the FF load of cycle 1 overlaps the predecessor's
  /// final D2 write-back (-1 cycle), and when the multiplier row repeats the
  /// D1 staging cycle is skipped too (-1 more). Results are bit-identical;
  /// only the cycle/energy account changes (fused_cycles_saved reports the
  /// discount).
  ///
  /// With an enabled `policy`, every MULT is first resolved against its
  /// operand data (ImcMacro::plan_mult): the add-shift loop runs only to the
  /// max effectual bit depth (narrow_precision) and provably-zero products
  /// skip staging and iterations outright (skip_zero). Outputs stay
  /// bit-identical; the saved cycles land in adaptive_cycles_saved with
  /// static == cycles + fused + adaptive asserted per instruction.
  ProgramStats run(const VerifiedProgram& vp, std::vector<TraceEntry>* trace = nullptr,
                   bool fuse_mac_chains = false, const AdaptivePolicy& policy = {});

 private:
  ImcMacro& macro_;
};

}  // namespace bpim::macro
