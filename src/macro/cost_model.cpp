#include "macro/cost_model.hpp"

#include "common/require.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"

namespace bpim::macro {

using array::RowRef;
using energy::Component;
using energy::SeparatorMode;

namespace {

// Cycle time of a macro built with `cfg` under its WL scheme and separator
// mode, composed from its frequency model.
Second scheme_cycle_time(const MacroConfig& cfg) {
  const timing::FreqModel freq(cfg.freq);
  const bool sep = cfg.separator == SeparatorMode::Enabled;
  switch (cfg.wl_scheme) {
    case WlScheme::ShortPulseBoost:
      return period_of(freq.fmax(cfg.vdd, sep));
    case WlScheme::Wlud: {
      // WL activation + sensing replaced by the WLUD BL computation phase
      // (~1.86 ns at 0.9 V from the transient model), supply-scaled.
      const auto b = freq.breakdown(cfg.vdd, sep);
      const double k = freq.config().scaling.factor(cfg.vdd);
      return b.bl_precharge + Second(1.86e-9 * k) + b.logic + b.write_back;
    }
    case WlScheme::FullSwingLong: {
      // Full-current discharge without boost (~0.42 ns at 0.9 V) -- fast but
      // destructive (see DisturbModel).
      const auto b = freq.breakdown(cfg.vdd, sep);
      const double k = freq.config().scaling.factor(cfg.vdd);
      return b.bl_precharge + Second(0.42e-9 * k) + b.logic + b.write_back;
    }
  }
  return period_of(freq.fmax(cfg.vdd, sep));
}

}  // namespace

CostModel::CostModel(const MacroConfig& cfg)
    : geom_(cfg.geometry),
      separator_(cfg.separator),
      params_(cfg.energy_params),
      cycle_time_(scheme_cycle_time(cfg)) {
  const energy::EnergyModel energy(cfg.energy_params);
  for (std::size_t c = 0; c < prices_.size(); ++c)
    prices_[c] = energy.price(static_cast<Component>(c), cfg.vdd);
  // MULT price table: the charge sequence of ImcMacro::mult_impl's
  // micro-actions, charge for charge and in order, folded once per
  // precision and staging mode. Entry [depth] is the running fold after
  // `depth` add-shift iterations, so it equals a fold stopped there.
  const double n = static_cast<double>(geom_.cols);
  const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(ImcMacro::kDummyAccum);
  for (unsigned bits = 2; bits <= kMaxMultBits; bits *= 2) {
    const double n_units = static_cast<double>(geom_.cols / (2 * static_cast<std::size_t>(bits)));
    for (const bool elided : {false, true}) {
      Joule* row = &mult_energy_[elided][mult_slot(bits)];
      Joule e{0.0};
      const auto charge = [&](Component comp, double n_bits) { e += price(comp) * n_bits; };
      // Cycle 1: D2 zero-init + multiplier FF load (always performed -- a
      // skipped MULT's result is that zero-initialised accumulator row).
      charge(wb_price(d2), n * params_.zero_init_activity);
      charge(Component::SingleWlRead, static_cast<double>(bits) * n_units);
      charge(Component::FlipFlop, static_cast<double>(bits) * n_units);
      // Cycle 2: multiplicand staged into D1 (elided on a d1-staged link or
      // a zero-skip plan).
      if (!elided) {
        charge(Component::SingleWlRead, static_cast<double>(bits) * n_units);
        charge(wb_price(d1), static_cast<double>(bits) * n_units);
      }
      row[0] = e;
      // Add-and-shift iterations on the separated segment.
      for (unsigned k = 1; k <= bits; ++k) {
        charge(compute_price(d1, d2), n);
        charge(Component::FaLogic, n);
        charge(Component::FlipFlop, n_units);
        charge(wb_price(d2), n * params_.mult_wb_activity);
        row[k] = e;
      }
    }
  }
}

InstructionCost CostModel::instruction_cost(const Instruction& inst,
                                            const Instruction* prev) const {
  // Each arm folds the component sequence the matching ImcMacro entry point
  // exercises, in hardware order, with its per-charge bit counts. The
  // reference ledger in tests/reference_ledger.hpp replays the same
  // sequence independently; the conservation tests compare the two bit for
  // bit.
  InstructionCost c;
  Joule e{0.0};
  const auto charge = [&](Component comp, double bits) { e += price(comp) * bits; };
  const double n = static_cast<double>(geom_.cols);

  switch (inst.op) {
    case Op::Nand:
    case Op::And:
    case Op::Nor:
    case Op::Or:
    case Op::Xnor:
    case Op::Xor:
      charge(compute_price(inst.a, inst.b), n);
      charge(Component::FaLogic, n);
      c.cycles = 1;
      break;
    case Op::Not:
    case Op::Copy:
    case Op::Shift: {
      BPIM_REQUIRE(inst.dest.has_value(), "single-WL op needs a destination to price");
      charge(Component::SingleWlRead, n);
      charge(Component::Inverter, n);
      charge(wb_price(*inst.dest), n);
      c.cycles = 1;
      break;
    }
    case Op::Add:
      charge(compute_price(inst.a, inst.b), n);
      charge(Component::FaLogic, n);
      if (inst.dest) charge(wb_price(*inst.dest), n);
      c.cycles = 1;
      break;
    case Op::AddShift: {
      BPIM_REQUIRE(inst.dest.has_value(), "ADD-Shift needs a destination to price");
      const std::size_t words = geom_.cols / inst.bits;
      charge(compute_price(inst.a, inst.b), n);
      charge(Component::FaLogic, n);
      charge(Component::FlipFlop, static_cast<double>(words));
      charge(wb_price(*inst.dest), n);
      c.cycles = 1;
      break;
    }
    case Op::Sub: {
      const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
      charge(Component::SingleWlRead, n);
      charge(Component::Inverter, n);
      charge(wb_price(d1), n);
      charge(compute_price(inst.a, d1), n);
      charge(Component::FaLogic, n);
      c.cycles = 2;
      break;
    }
    case Op::Mult: {
      const bool pipelined =
          prev != nullptr && prev->op == Op::Mult && prev->bits == inst.bits;
      const bool d1_staged = pipelined && prev->a == inst.a;
      return mult_cost(inst.bits, MultPlan::full(inst.bits, d1_staged, pipelined));
    }
  }
  c.energy = e;
  return c;
}

InstructionCost CostModel::instruction_cost(const Instruction& inst, const MultPlan& plan) const {
  if (inst.op != Op::Mult) return instruction_cost(inst, nullptr);
  return mult_cost(inst.bits, plan);
}

InstructionCost CostModel::mult_cost(unsigned bits, const MultPlan& plan) const {
  static_assert(kMultSlots == mult_slot(2 * kMaxMultBits));
  BPIM_REQUIRE(is_supported_precision(bits) && plan.depth <= bits, "MULT plan out of range");
  return InstructionCost{plan.cycles(),
                         mult_energy_[plan.skip || plan.d1_staged][mult_slot(bits) + plan.depth]};
}

ProgramStats CostModel::program_cost(const Program& p, bool fuse_mac_chains) const {
  ProgramStats stats;
  const Instruction* prev = nullptr;
  for (const Instruction& i : p.instructions()) {
    const InstructionCost c = instruction_cost(i, fuse_mac_chains ? prev : nullptr);
    ++stats.instructions;
    stats.cycles += c.cycles;
    const unsigned table_cycles = op_cycles(i.op, i.bits);
    if (table_cycles > c.cycles) stats.fused_cycles_saved += table_cycles - c.cycles;
    stats.energy += c.energy;
    prev = &i;
  }
  stats.elapsed = cycle_time_ * static_cast<double>(stats.cycles);
  return stats;
}

}  // namespace bpim::macro
