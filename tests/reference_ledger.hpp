#pragma once
// Test-only reference ledger: the macro sequencer's charge sequence,
// micro-action by micro-action, folded into a running per-component account.
//
// This is the oracle for macro::CostModel the way baseline/naive_datapath
// is the oracle for values. Each entry point charges the components, bit
// counts and order of the micro-actions one hardware op performs, and folds
// them left, charge by charge, starting from zero per op. CostModel must
// price every instruction to the identical integer cycles and the
// identical energy bits; the tests that use this header check exactly
// that. Prices come from CostModel::price (the one per-component price
// table), so only the sequence is independent.

#include <array>
#include <cstdint>
#include <optional>

#include "energy/energy_model.hpp"
#include "macro/cost_model.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"

namespace bpim::macro {

class ReferenceLedger {
 public:
  explicit ReferenceLedger(const MacroConfig& cfg) : cost_(cfg), cols_(cfg.geometry.cols) {}

  /// Charges one instruction: `plan` resolves a MULT (ignored otherwise).
  InstructionCost charge(const Instruction& inst, const MultPlan& plan) {
    const double n = static_cast<double>(cols_);
    const array::RowRef d1 = array::RowRef::dummy(ImcMacro::kDummyOperand);
    const array::RowRef d2 = array::RowRef::dummy(ImcMacro::kDummyAccum);
    using energy::Component;
    switch (inst.op) {
      case Op::Nand:
      case Op::And:
      case Op::Nor:
      case Op::Or:
      case Op::Xnor:
      case Op::Xor:
        add(CostModel::compute_price(inst.a, inst.b), n);
        add(Component::FaLogic, n);
        return finish(1);
      case Op::Not:
      case Op::Copy:
      case Op::Shift:
        add(Component::SingleWlRead, n);
        add(Component::Inverter, n);
        add(cost_.wb_price(*inst.dest), n);
        return finish(1);
      case Op::Add:
        add(CostModel::compute_price(inst.a, inst.b), n);
        add(Component::FaLogic, n);
        if (inst.dest) add(cost_.wb_price(*inst.dest), n);
        return finish(1);
      case Op::AddShift:
        add(CostModel::compute_price(inst.a, inst.b), n);
        add(Component::FaLogic, n);
        add(Component::FlipFlop, static_cast<double>(cols_ / inst.bits));
        add(cost_.wb_price(*inst.dest), n);
        return finish(1);
      case Op::Sub:
        // Cycle 1: ~b -> D1; cycle 2: a + D1 + 1.
        add(Component::SingleWlRead, n);
        add(Component::Inverter, n);
        add(cost_.wb_price(d1), n);
        add(CostModel::compute_price(inst.a, d1), n);
        add(Component::FaLogic, n);
        return finish(2);
      case Op::Mult: {
        const auto& p = cost_.params();
        const double units = static_cast<double>(cols_ / (2 * inst.bits));
        const double operand_bits = static_cast<double>(inst.bits) * units;
        // Cycle 1: D2 zero-init + multiplier FF load.
        add(cost_.wb_price(d2), n * p.zero_init_activity);
        add(Component::SingleWlRead, operand_bits);
        add(Component::FlipFlop, operand_bits);
        // Cycle 2: multiplicand staged into D1.
        if (!plan.skip && !plan.d1_staged) {
          add(Component::SingleWlRead, operand_bits);
          add(cost_.wb_price(d1), operand_bits);
        }
        // One charge set per executed add-and-shift iteration.
        for (unsigned k = 0; k < plan.depth; ++k) {
          add(CostModel::compute_price(d1, d2), n);
          add(Component::FaLogic, n);
          add(Component::FlipFlop, units);
          add(cost_.wb_price(d2), n * p.mult_wb_activity);
        }
        return finish(plan.cycles());
      }
    }
    return finish(0);
  }
  /// Charges one instruction under its static plan (a MULT runs full depth
  /// with no chain discount).
  InstructionCost charge(const Instruction& inst) {
    return charge(inst, MultPlan::full(inst.bits));
  }

  /// A standard single-WL read of a full row (1 cycle).
  InstructionCost read_row() {
    add(energy::Component::SingleWlRead, static_cast<double>(cols_));
    return finish(1);
  }
  /// A standard write of a full row, driving the full-height BLs (1 cycle).
  InstructionCost write_row() {
    add(energy::Component::WriteBackFull, static_cast<double>(cols_));
    return finish(1);
  }

  [[nodiscard]] InstructionCost last() const { return last_; }
  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }
  [[nodiscard]] Joule total_energy() const { return total_energy_; }
  /// Energy charged to one micro-action class (sums to total_energy()
  /// across all components).
  [[nodiscard]] Joule component_energy(energy::Component c) const {
    return component_[static_cast<std::size_t>(c)];
  }

 private:
  void add(energy::Component c, double bits) {
    const Joule e = cost_.price(c) * bits;
    pending_ += e;
    component_[static_cast<std::size_t>(c)] += e;
  }
  InstructionCost finish(unsigned cycles) {
    last_ = InstructionCost{cycles, pending_};
    total_cycles_ += cycles;
    total_energy_ += pending_;
    pending_ = Joule(0.0);
    return last_;
  }

  CostModel cost_;
  std::size_t cols_;
  Joule pending_{0.0};
  InstructionCost last_{};
  std::uint64_t total_cycles_ = 0;
  Joule total_energy_{0.0};
  std::array<Joule, energy::kComponentCount> component_{};
};

/// The Instruction a direct row-op call executes, for charging it.
inline Instruction instruction(Op op, array::RowRef a, array::RowRef b, unsigned bits,
                               std::optional<array::RowRef> dest = std::nullopt) {
  Instruction i;
  i.op = op;
  i.a = a;
  i.b = b;
  i.bits = bits;
  i.dest = dest;
  return i;
}

}  // namespace bpim::macro
