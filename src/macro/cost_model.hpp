#pragma once
// Instruction-driven cost model: cycles and joules of a macro::Program,
// priced instruction by instruction from the timing (timing/freq_model) and
// energy (energy/EnergyModel) models -- without touching a macro. It is the
// macro's only account: ImcMacro computes values and disturb, and
// MacroController::run prices every instruction it executes here.
//
// Each Instruction maps to the exact micro-action sequence the sequencer
// issues (dummy-row traffic, per-bit activities and all), folded in
// hardware order, so a program's statically priced totals equal its
// executed totals *bitwise* -- double accumulation order included. Tests
// hold the prices to an independent replay of that sequence
// (tests/reference_ledger.hpp): integer cycles, bitwise energy.
//
// One price table: the per-Component unit prices at the config's supply are
// computed once, at construction, from EnergyModel::price. Every ImcMacro
// owns a CostModel built from its config. MULT, the one op whose charge
// sequence has a variable length, is also folded once at construction into
// a table by precision, staging mode and iteration depth, so pricing a MULT
// is a table read.
//
// Chained-MAC pricing: pass the predecessor instruction to instruction_cost
// (or set fuse_mac_chains on program_cost) and back-to-back MULTs at one
// precision get the pipelined FF-load discount (-1 cycle); a repeated
// multiplicand row additionally skips the D1 staging cycle and its energy
// (-1 cycle more) -- the same discounts MacroController::run applies.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "energy/energy_model.hpp"
#include "macro/config.hpp"
#include "macro/isa.hpp"

namespace bpim::macro {

struct Instruction;    // macro/program.hpp
class Program;         // macro/program.hpp
struct ProgramStats;   // macro/program.hpp

/// Price of one instruction: its modeled cycles and energy.
struct InstructionCost {
  unsigned cycles = 0;
  Joule energy{0.0};
};

class CostModel {
 public:
  explicit CostModel(const MacroConfig& cfg);

  /// Price one instruction. `prev` (may be null) is the immediately
  /// preceding instruction *on the chained datapath*: pass it only when the
  /// executing controller runs with fuse_mac_chains, so the MULT discounts
  /// here match the execution path cycle for cycle.
  [[nodiscard]] InstructionCost instruction_cost(const Instruction& inst,
                                                 const Instruction* prev = nullptr) const;

  /// Price one instruction under a resolved adaptive MULT plan (the
  /// controller's path when an AdaptivePolicy is active: ImcMacro::plan_mult
  /// resolves the data-dependent depth/skip once, and this overload prices
  /// exactly the micro-actions mult_rows_planned performs -- the cost
  /// model itself stays data-oblivious). Non-MULT instructions ignore the
  /// plan and price as the static overload does.
  [[nodiscard]] InstructionCost instruction_cost(const Instruction& inst,
                                                 const MultPlan& plan) const;

  /// Price a whole program, accumulating in instruction order (the same
  /// left-fold MacroController::run performs). With `fuse_mac_chains`, MULT
  /// chains are priced on the chained datapath and the discount lands in
  /// fused_cycles_saved, exactly as MacroController::run books it.
  [[nodiscard]] ProgramStats program_cost(const Program& p, bool fuse_mac_chains = false) const;

  /// Cycle time under the config's WL scheme and separator mode -- the tick
  /// ImcMacro::cycle_time() reports.
  [[nodiscard]] Second cycle_time() const { return cycle_time_; }

  /// Per-bit price of `c` at the config's supply (the one price table).
  [[nodiscard]] Joule price(energy::Component c) const {
    return prices_[static_cast<std::size_t>(c)];
  }
  /// Activities and calibration the per-charge bit counts scale by.
  [[nodiscard]] const energy::EnergyParams& params() const { return params_; }

  /// Dual-WL compute price: dummy-segment computes are short-BL accesses.
  [[nodiscard]] static energy::Component compute_price(array::RowRef a, array::RowRef b) {
    return (a.is_dummy() && b.is_dummy()) ? energy::Component::DualWlComputeNear
                                          : energy::Component::DualWlComputeMain;
  }
  /// Write-back price: only a dummy-row write under an enabled separator
  /// drives the short segment.
  [[nodiscard]] energy::Component wb_price(array::RowRef dest) const {
    return (dest.is_dummy() && separator_ == energy::SeparatorMode::Enabled)
               ? energy::Component::WriteBackNear
               : energy::Component::WriteBackFull;
  }

 private:
  /// A MULT's price under a plan: plan.cycles() and one table read.
  [[nodiscard]] InstructionCost mult_cost(unsigned bits, const MultPlan& plan) const;

  /// Start of precision `bits`' entries in a mult_energy_ row: one entry
  /// per depth 0..bits for bits = 2, 4, ..., 32, back to back.
  static constexpr std::size_t mult_slot(unsigned bits) {
    return bits + static_cast<std::size_t>(std::countr_zero(bits)) - 3;
  }
  static constexpr unsigned kMaxMultBits = 32;
  static constexpr std::size_t kMultSlots = 67;  // mult_slot(64): 3 + 5 + 9 + 17 + 33

  array::ArrayGeometry geom_;
  energy::SeparatorMode separator_;
  energy::EnergyParams params_;
  std::array<Joule, energy::kComponentCount> prices_{};
  /// MULT energy by [staging elided][mult_slot(bits) + depth]: the charge
  /// fold through `depth` add-shift iterations (see the constructor).
  std::array<std::array<Joule, kMultSlots>, 2> mult_energy_{};
  Second cycle_time_;
};

}  // namespace bpim::macro
