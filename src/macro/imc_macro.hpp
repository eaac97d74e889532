#pragma once
// The bit-parallel in-memory-computing macro: the paper's primary
// contribution, as a cycle-accurate functional model.
//
// One macro = one SRAM array (default 128x128) + 3 dummy rows behind the BL
// separator + a row of column peripheral units (SAs, FA-Logics, MX0..MX3,
// multiplier flip-flops, write-back drivers) + the micro-coded sequencer.
//
// Word layout: at precision N, a row holds cols/N words; word w occupies
// columns [w*N, (w+1)*N), bit i of the word in column w*N+i. Operands of a
// dual-WL operation sit in the *same columns of two different rows*. MULT
// uses 2N-bit precision units (Fig 6): unit u spans columns [u*2N, (u+1)*2N);
// the N-bit inputs live in the unit's low half and the 2N-bit product fills
// the unit.
//
// Every compute entry point mutates state exactly as the hardware sequence
// would (dummy-row traffic included) and computes values and read disturb
// only. The macro keeps no cycle or energy account: each instruction's
// cycles and joules come from the macro's CostModel, which
// MacroController::run prices every executed instruction through.
//
// Latches: like the hardware, the macro computes through fixed per-macro
// storage -- the SA readout, the FA outputs, the multiplier FF row and the
// write-back driver row -- sized once at construction, so no row op
// allocates. A row op's returned `const BitVector&` names the latch (or the
// dummy row) its result was driven into: it stays valid until the macro's
// next op, and a caller that keeps a result copies it.
//
// Execution contract: the compute entry points below are the *controller's*
// surface. Everything above the macro layer (engine/serve/app) executes
// through verified macro::Programs via MacroController -- a CI grep gate
// enforces that no direct row-op call appears outside src/macro/. Tests and
// benches may still call them directly as the differential oracle against
// the program path (alongside baseline/naive_datapath).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "array/sram_array.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "macro/config.hpp"
#include "macro/cost_model.hpp"
#include "macro/isa.hpp"
#include "periph/falogics.hpp"

namespace bpim::macro {

/// Per-scheme probability that a vulnerable cell flips during one dual-WL
/// compute. Values for ShortPulseBoost/Wlud are the measured iso-ADM rates
/// (see timing/adm and EXPERIMENTS.md); FullSwingLong is catastrophic.
struct DisturbModel {
  double flip_probability = 0.0;
  [[nodiscard]] static DisturbModel for_scheme(WlScheme scheme);
};

class ImcMacro {
 public:
  explicit ImcMacro(const MacroConfig& cfg);

  [[nodiscard]] const MacroConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t cols() const { return cfg_.geometry.cols; }
  [[nodiscard]] std::size_t rows() const { return cfg_.geometry.rows; }
  /// Words per row at a given precision.
  [[nodiscard]] std::size_t words_per_row(unsigned bits) const;
  /// MULT units per row at a given precision (each 2*bits wide).
  [[nodiscard]] std::size_t mult_units_per_row(unsigned bits) const;

  // ---- data access outside the instruction stream (setup and readout) -----
  void poke_row(std::size_t r, const BitVector& data);
  [[nodiscard]] const BitVector& peek_row(std::size_t r) const;
  void poke_word(std::size_t r, std::size_t word, unsigned bits, std::uint64_t value);
  [[nodiscard]] std::uint64_t peek_word(std::size_t r, std::size_t word, unsigned bits) const;
  /// Bulk poke: values[i] goes to word `first_word + i`. One range/precision
  /// validation for the whole span (the engine's operand-load path).
  void poke_words(std::size_t r, std::size_t first_word, unsigned bits,
                  std::span<const std::uint64_t> values);
  /// Low half of MULT unit `u` (operand slot).
  void poke_mult_operand(std::size_t r, std::size_t unit, unsigned bits, std::uint64_t value);
  /// Bulk poke of MULT operands: values[i] goes to unit `first_unit + i`.
  void poke_mult_operands(std::size_t r, std::size_t first_unit, unsigned bits,
                          std::span<const std::uint64_t> values);
  [[nodiscard]] std::uint64_t peek_mult_product(const BitVector& row, std::size_t unit,
                                                unsigned bits) const;
  [[nodiscard]] const array::SramArray& sram() const { return array_; }

  // ---- compute operations -------------------------------------------------
  // Each returns the row its result was driven into (see "Latches" above).
  /// Dual-WL logic op across all columns (1 cycle).
  const BitVector& logic_rows(periph::LogicFn fn, array::RowRef a, array::RowRef b);
  /// Single-WL op: NOT / COPY / SHIFT(<<1 per precision word) of row `src`,
  /// written back to `dest` (1 cycle).
  const BitVector& unary_row(Op op, array::RowRef src, array::RowRef dest, unsigned bits);
  /// Bit-parallel ADD of all words of two rows (1 cycle, result driven out;
  /// pass `dest` to also write it back).
  const BitVector& add_rows(array::RowRef a, array::RowRef b, unsigned bits,
                            std::optional<array::RowRef> dest = std::nullopt,
                            bool carry_in = false);
  /// ADD followed by the <<1 write-back path (1 cycle, requires dest).
  const BitVector& add_shift_rows(array::RowRef a, array::RowRef b, unsigned bits,
                                  array::RowRef dest);
  /// Two's-complement SUB: a - b (2 cycles: NOT -> dummy, ADD with cin=1).
  const BitVector& sub_rows(array::RowRef a, array::RowRef b, unsigned bits);
  /// Bit-parallel MULT on 2N-bit units (N+2 cycles static; fewer under an
  /// enabled AdaptivePolicy -- see plan_mult). Operands in the low halves of
  /// each unit of rows a (multiplicand) and b (multiplier); returns dummy
  /// row D2, which holds the row of 2N-bit products.
  ///
  /// Cycles 1 and 2 (D2 zero-init + FF load, D1 staging) always run as the
  /// hardware does. The add-and-shift iterations are evaluated two ways:
  ///  * iterated, when a dual-WL access can draw disturb (inject_disturb on
  ///    at a nonzero flip probability): each iteration senses D1 and D2,
  ///    draws against D1 XOR D2 and writes D2 back, in hardware order;
  ///  * closed form, otherwise: unit u of D2 becomes
  ///    D1_u * (FF_u mod 2^depth) mod 2^2N in one host multiply per unit
  ///    and one D2 write (none when depth is 0).
  /// Both leave D1, D2 and the FF row bit-identical. The SA, FA and driver
  /// latches are scratch: their contents after a MULT are unspecified.
  const BitVector& mult_rows(array::RowRef a, array::RowRef b, unsigned bits,
                             const AdaptivePolicy& policy = {});
  /// MULT as the non-head link of a fused MAC chain. `pipelined` overlaps
  /// cycle 1 (D2 zero-init + FF load) with the predecessor MULT's final
  /// write-back (-1 cycle, same energy); `d1_staged` additionally skips the
  /// D1 staging cycle -- valid only when the immediately preceding op was a
  /// MULT of the same multiplicand row at the same precision, so D1 still
  /// holds the masked copy (-1 cycle and its staging energy). Products are
  /// bit-identical to mult_rows().
  const BitVector& mult_rows_chained(array::RowRef a, array::RowRef b, unsigned bits,
                                     bool d1_staged, bool pipelined,
                                     const AdaptivePolicy& policy = {});
  /// Resolve the adaptive execution plan of one MULT from the operand data:
  /// SWAR-scan the unit fields (zero multiplicand units drop their
  /// multiplier bits; the rest are OR-folded) for the max effectual depth
  /// E, then narrow the iteration count to E (narrow_precision) and/or skip
  /// the op body when E == 0 (skip_zero).
  /// The scan itself costs nothing: it models the peripheral's zero/msb
  /// detectors reading the operands as they stream through the FF load and
  /// staging cycles the op performs anyway.
  [[nodiscard]] MultPlan plan_mult(array::RowRef a, array::RowRef b, unsigned bits,
                                   const AdaptivePolicy& policy, bool d1_staged = false,
                                   bool pipelined = false) const;
  /// Execute a MULT under an already-resolved plan (the controller's path:
  /// plan once, price it, execute it). The plan must come from plan_mult on
  /// the current operand data -- a stale or hand-built plan that skips
  /// effectual iterations yields wrong products.
  const BitVector& mult_rows_planned(array::RowRef a, array::RowRef b, unsigned bits,
                                     const MultPlan& plan);

  // ---- cost and disturb -----------------------------------------------------
  /// Cycle time / fmax for this macro's scheme and separator mode.
  [[nodiscard]] Second cycle_time() const { return cost_.cycle_time(); }
  [[nodiscard]] Hertz fmax() const { return frequency_of(cycle_time()); }
  /// The instruction-driven cost model of this macro's config, built once:
  /// the one account of what each instruction on this macro costs.
  [[nodiscard]] const CostModel& cost_model() const { return cost_; }

  /// Cells corrupted by injected read disturb over the macro's lifetime
  /// (nothing resets it; take a difference to count one run's flips).
  [[nodiscard]] std::uint64_t disturb_flips() const { return disturb_flips_; }

  /// Dummy-row roles used by the sequencer.
  static constexpr std::size_t kDummyZero = 0;  ///< scratch / zero row
  static constexpr std::size_t kDummyOperand = 1;  ///< NOT result / multiplicand copy
  static constexpr std::size_t kDummyAccum = 2;    ///< MULT accumulator / results

 private:
  const BitVector& mult_impl(array::RowRef a, array::RowRef b, unsigned bits,
                             const MultPlan& plan);
  /// Write with separator management.
  void store(array::RowRef dest, const BitVector& data);
  /// Dual-WL compute of rows a and b into the SA latch (plus disturb).
  void sense_dual(array::RowRef a, array::RowRef b);
  /// True when a dual-WL access can flip cells: injection on at a nonzero
  /// flip probability. maybe_disturb draws only then, and MULT iterates
  /// only then (see mult_rows).
  [[nodiscard]] bool draws_disturb() const;
  /// Apply stochastic disturb to vulnerable columns of a dual-WL access.
  void maybe_disturb(array::RowRef a, array::RowRef b);

  MacroConfig cfg_;
  array::SramArray array_;
  CostModel cost_;
  DisturbModel disturb_;
  Rng rng_;

  // Peripheral latches, sized to the row at construction (see "Latches").
  array::BlReadout sense_;  ///< SA outputs of the last BL access
  periph::AddResult fa_;    ///< FA-Logics outputs of the last addition
  BitVector ff_;            ///< multiplier flip-flops (the latched multiplier row)
  BitVector drive_;         ///< Y-path / write-back driver row
  std::vector<std::size_t> disturb_cols_;  ///< vulnerable columns of a flipping access

  std::uint64_t disturb_flips_ = 0;
};

}  // namespace bpim::macro
