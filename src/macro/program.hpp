#pragma once
// Micro-program interface to the IMC macro -- the software-visible face of
// the "Ctrl." block in the paper's Fig 3.
//
// A Program is a list of instructions (op, operand rows, precision,
// destination). The verifier (macro/verifier.hpp) checks it once against an
// array geometry and seals it as a VerifiedProgram; the MacroController
// executes only sealed programs on an ImcMacro, pricing every instruction
// through the macro's CostModel and handing each result to an optional
// sink. This is how a host integrates the macro: build row-level programs,
// verify them, run them, read results -- without touching the per-op C++
// API directly.

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
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

/// Non-owning callable that MacroController::run hands every executed
/// instruction to: its index in the program, the row its result was driven
/// into (the macro's latch or dummy row: valid only during the call), its
/// price, and the cycles the adaptive policy saved on it. The callable must
/// outlive the run() call; an empty sink is skipped. Nothing allocates.
class ResultSink {
 public:
  ResultSink() = default;
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, ResultSink> &&
             std::invocable<F&, std::size_t, const BitVector&, const InstructionCost&, unsigned>)
  ResultSink(F&& f)  // NOLINT(bugprone-forwarding-reference-overload): constrained above
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, std::size_t index, const BitVector& result,
                 const InstructionCost& cost, unsigned adaptive) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(index, result, cost, adaptive);
        }) {}

  explicit operator bool() const { return call_ != nullptr; }
  void operator()(std::size_t index, const BitVector& result, const InstructionCost& cost,
                  unsigned adaptive_cycles_saved) const {
    call_(obj_, index, result, cost, adaptive_cycles_saved);
  }

 private:
  void* obj_ = nullptr;
  void (*call_)(void*, std::size_t, const BitVector&, const InstructionCost&, unsigned) = nullptr;
};

/// Per-program account, derived from the instruction stream: run() prices
/// every instruction through the macro's CostModel (cycles from timing/,
/// joules from energy/), the one account of what the macro did.
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

  /// Runs `vp`; returns stats. A non-empty `sink` receives every
  /// instruction's result row and price as it executes. Throws
  /// std::invalid_argument, with the macro untouched, when `vp` was verified
  /// against a different array geometry.
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
  ProgramStats run(const VerifiedProgram& vp, ResultSink sink = {}, bool fuse_mac_chains = false,
                   const AdaptivePolicy& policy = {});

 private:
  ImcMacro& macro_;
};

}  // namespace bpim::macro
