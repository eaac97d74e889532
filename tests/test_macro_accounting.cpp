// Per-component energy breakdown and standard SRAM accesses, read from the
// reference ledger (tests/reference_ledger.hpp), plus the conservation law
// of the unified execution model: program execution is priced
// instruction-by-instruction through macro::CostModel, and those totals must
// equal the reference ledger's replay of the sequencer's charges EXACTLY --
// integer cycles, bitwise-identical energy doubles.

#include <gtest/gtest.h>

#include "energy/energy_model.hpp"
#include "macro/cost_model.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "reference_ledger.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using energy::Component;

constexpr std::array<Component, 8> kAllComponents{
    Component::DualWlComputeMain, Component::DualWlComputeNear, Component::SingleWlRead,
    Component::FaLogic,           Component::Inverter,          Component::WriteBackNear,
    Component::WriteBackFull,     Component::FlipFlop};

double breakdown_sum(const ReferenceLedger& ledger) {
  double s = 0.0;
  for (const auto c : kAllComponents) s += ledger.component_energy(c).si();
  return s;
}

TEST(MacroAccounting, ComponentsSumToTotalAcrossMixedOps) {
  ReferenceLedger ledger{MacroConfig{}};
  ledger.charge(instruction(Op::Add, RowRef::main(0), RowRef::main(1), 8));
  ledger.charge(instruction(Op::Sub, RowRef::main(2), RowRef::main(3), 8));
  ledger.charge(instruction(Op::Mult, RowRef::main(4), RowRef::main(5), 4));
  ledger.charge(instruction(Op::Shift, RowRef::main(6), RowRef::main(6), 8, RowRef::dummy(0)));
  EXPECT_NEAR(breakdown_sum(ledger), ledger.total_energy().si(), 1e-22);
}

TEST(MacroAccounting, AddTouchesOnlyComputeAndFa) {
  ReferenceLedger ledger{MacroConfig{}};
  ledger.charge(instruction(Op::Add, RowRef::main(0), RowRef::main(1), 8));
  EXPECT_GT(ledger.component_energy(Component::DualWlComputeMain).si(), 0.0);
  EXPECT_GT(ledger.component_energy(Component::FaLogic).si(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.component_energy(Component::WriteBackNear).si(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.component_energy(Component::WriteBackFull).si(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.component_energy(Component::SingleWlRead).si(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.component_energy(Component::FlipFlop).si(), 0.0);
}

TEST(MacroAccounting, MultUsesNearComputeAndFlipFlops) {
  ReferenceLedger ledger{MacroConfig{}};
  ledger.charge(instruction(Op::Mult, RowRef::main(0), RowRef::main(1), 8));
  EXPECT_GT(ledger.component_energy(Component::DualWlComputeNear).si(), 0.0);
  EXPECT_GT(ledger.component_energy(Component::FlipFlop).si(), 0.0);
  EXPECT_GT(ledger.component_energy(Component::WriteBackNear).si(), 0.0);
  EXPECT_GT(ledger.component_energy(Component::SingleWlRead).si(), 0.0);  // B load + A copy
  EXPECT_DOUBLE_EQ(ledger.component_energy(Component::DualWlComputeMain).si(), 0.0);
}

TEST(MacroAccounting, ProgramTotalsConserveLedgerTotalsExactly) {
  // One instruction of every kind; the instruction-stream account returned
  // by run() must equal the reference ledger's replay of the same program:
  // cycles as integers, energy bitwise (the CostModel prices the exact
  // charge fold).
  ImcMacro m{MacroConfig{}};
  MacroController ctl(m);
  ReferenceLedger ledger{m.config()};
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8);
  p.sub(RowRef::main(2), RowRef::main(3), 8);
  p.mult(RowRef::main(4), RowRef::main(5), 4);
  p.add_shift(RowRef::main(6), RowRef::main(7), 8, RowRef::dummy(ImcMacro::kDummyAccum));
  p.unary(Op::Not, RowRef::main(8), RowRef::dummy(ImcMacro::kDummyOperand), 8);
  p.unary(Op::Shift, RowRef::main(9), RowRef::dummy(ImcMacro::kDummyOperand), 8);
  p.logic(periph::LogicFn::Xor, RowRef::main(10), RowRef::main(11));
  std::size_t seen = 0;
  const ProgramStats stats = ctl.run(
      verify(p, m.config().geometry),
      [&](std::size_t k, const BitVector&, const InstructionCost& cost, unsigned adaptive) {
        const InstructionCost want = ledger.charge(p.instructions()[k]);
        EXPECT_EQ(cost.cycles, want.cycles) << p.dump();
        EXPECT_EQ(cost.energy.si(), want.energy.si()) << p.dump();
        EXPECT_EQ(adaptive, 0u);
        EXPECT_EQ(k, seen++);
      });
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(stats.instructions, 7u);
  EXPECT_EQ(stats.cycles, ledger.total_cycles());
  EXPECT_EQ(stats.energy.si(), ledger.total_energy().si());  // bitwise, not NEAR
  EXPECT_EQ(stats.fused_cycles_saved, 0u);

  // The static program_cost agrees with the executed account in full.
  const CostModel cost(m.config());
  const ProgramStats priced = cost.program_cost(p);
  EXPECT_EQ(priced.instructions, stats.instructions);
  EXPECT_EQ(priced.cycles, stats.cycles);
  EXPECT_EQ(priced.energy.si(), stats.energy.si());
  EXPECT_EQ(priced.elapsed.si(), stats.elapsed.si());
}

TEST(MacroAccounting, FusedChainTotalsConserveLedgerTotals) {
  // The chained-MAC discounts change both cycles and energy (skipped D1
  // staging); the per-instruction pricing must track the executed datapath
  // through every discount combination.
  ImcMacro m{MacroConfig{}};
  MacroController ctl(m);
  Program p;
  p.mult(RowRef::main(0), RowRef::main(1), 8);  // full price (N + 2)
  p.mult(RowRef::main(0), RowRef::main(3), 8);  // pipelined + D1-staged (-2)
  p.mult(RowRef::main(4), RowRef::main(5), 8);  // pipelined only (-1)
  ReferenceLedger ledger{m.config()};
  ledger.charge(p.instructions()[0], MultPlan::full(8));
  ledger.charge(p.instructions()[1], MultPlan::full(8, /*d1_staged=*/true, /*pipelined=*/true));
  ledger.charge(p.instructions()[2], MultPlan::full(8, /*d1_staged=*/false, /*pipelined=*/true));
  const ProgramStats stats = ctl.run(verify(p, m.config().geometry), {}, /*fuse_mac_chains=*/true);
  EXPECT_EQ(stats.cycles, ledger.total_cycles());
  EXPECT_EQ(stats.energy.si(), ledger.total_energy().si());
  EXPECT_EQ(stats.fused_cycles_saved, 3u);
  EXPECT_EQ(stats.cycles, 3u * 10u - 3u);

  const CostModel cost(m.config());
  const ProgramStats priced = cost.program_cost(p, /*fuse_mac_chains=*/true);
  EXPECT_EQ(priced.cycles, stats.cycles);
  EXPECT_EQ(priced.fused_cycles_saved, stats.fused_cycles_saved);
  EXPECT_EQ(priced.energy.si(), stats.energy.si());
}

TEST(MacroAccounting, StandardReadIsChargedAndCorrect) {
  ImcMacro m{MacroConfig{}};
  ReferenceLedger ledger{m.config()};
  BitVector data(128, 0xDEADBEEFull);
  m.poke_row(9, data);
  EXPECT_EQ(m.peek_row(9), data);
  EXPECT_EQ(ledger.read_row().cycles, 1u);
  EXPECT_GT(ledger.component_energy(Component::SingleWlRead).si(), 0.0);
}

TEST(MacroAccounting, StandardWriteIsChargedAndStored) {
  ImcMacro m{MacroConfig{}};
  ReferenceLedger ledger{m.config()};
  BitVector data(128);
  data.fill(true);
  m.poke_row(11, data);
  EXPECT_EQ(m.peek_row(11), data);
  EXPECT_EQ(ledger.write_row().cycles, 1u);
  EXPECT_GT(ledger.component_energy(Component::WriteBackFull).si(), 0.0);
}

TEST(MacroAccounting, StandardAccessesCheaperThanCompute) {
  // A normal read costs less than a dual-WL compute (one WL, no boost race,
  // no FA evaluation) -- the "memory performance preserved" framing.
  ReferenceLedger ledger{MacroConfig{}};
  const double read = ledger.read_row().energy.si();
  const Instruction add = instruction(Op::Add, RowRef::main(0), RowRef::main(1), 8);
  EXPECT_LT(read, ledger.charge(add).energy.si());
  EXPECT_EQ(ledger.last().energy.si(), CostModel(MacroConfig{}).instruction_cost(add).energy.si());
}

}  // namespace
}  // namespace bpim::macro
