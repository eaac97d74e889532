// The energy of ops executed on the macro -- priced per instruction by its
// CostModel -- must agree with the closed-form EnergyModel (same component
// prices, same recipes): Table 2 by simulation. CostModel must also equal
// the reference ledger's charge-by-charge replay of the sequencer, bitwise.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "energy/calibration.hpp"
#include "macro/cost_model.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "reference_ledger.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using energy::EnergyModel;
using energy::SeparatorMode;

MacroConfig config_with(SeparatorMode sep) {
  MacroConfig cfg;
  cfg.separator = sep;
  return cfg;
}

/// Executes `p` on `m` through the controller; returns its account.
ProgramStats execute(ImcMacro& m, const Program& p) {
  MacroController ctl(m);
  return ctl.run(verify(p, m.config().geometry));
}

/// Energy per word of a full-row op = its energy / words per row.
double per_word_fj(const ImcMacro& m, const ProgramStats& st, unsigned bits) {
  return in_fJ(st.energy) / static_cast<double>(m.cols() / bits);
}

/// Energy per 2N-bit unit of a MULT.
double per_unit_fj(const ImcMacro& m, const ProgramStats& st, unsigned bits) {
  return in_fJ(st.energy) / static_cast<double>(m.mult_units_per_row(bits));
}

class MacroEnergy : public ::testing::TestWithParam<unsigned> {};

TEST_P(MacroEnergy, AddMatchesClosedForm) {
  const unsigned bits = GetParam();
  ImcMacro m{MacroConfig{}};
  const EnergyModel ref;
  const ProgramStats st = execute(m, Program().add(RowRef::main(0), RowRef::main(1), bits));
  EXPECT_NEAR(per_word_fj(m, st, bits), in_fJ(ref.add(bits, m.config().vdd)), 1e-6);
}

TEST_P(MacroEnergy, SubMatchesClosedFormBothSeparatorModes) {
  const unsigned bits = GetParam();
  const EnergyModel ref;
  for (const auto sep : {SeparatorMode::Enabled, SeparatorMode::Disabled}) {
    ImcMacro m{config_with(sep)};
    const ProgramStats st = execute(m, Program().sub(RowRef::main(0), RowRef::main(1), bits));
    EXPECT_NEAR(per_word_fj(m, st, bits), in_fJ(ref.sub(bits, m.config().vdd, sep)), 1e-6)
        << (sep == SeparatorMode::Enabled ? "w/ sep" : "w/o sep");
  }
}

TEST_P(MacroEnergy, MultMatchesClosedFormBothSeparatorModes) {
  const unsigned bits = GetParam();
  const EnergyModel ref;
  for (const auto sep : {SeparatorMode::Enabled, SeparatorMode::Disabled}) {
    ImcMacro m{config_with(sep)};
    m.poke_mult_operand(0, 0, bits, 1);
    m.poke_mult_operand(1, 0, bits, 1);
    const ProgramStats st = execute(m, Program().mult(RowRef::main(0), RowRef::main(1), bits));
    EXPECT_NEAR(per_unit_fj(m, st, bits), in_fJ(ref.mult(bits, m.config().vdd, sep)), 1e-6)
        << (sep == SeparatorMode::Enabled ? "w/ sep" : "w/o sep");
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, MacroEnergy, ::testing::Values(2u, 4u, 8u));

TEST(MacroEnergyTable2, SimulatedMacroReproducesTable2) {
  // End-to-end: run the ops on the macro and compare the per-word energies
  // against the paper's Table 2 within the calibration tolerance.
  for (const auto& t : energy::table2_targets()) {
    ImcMacro m{config_with(t.sep)};
    double fj = 0.0;
    const std::string op(t.op);
    if (op == "ADD") {
      fj = per_word_fj(m, execute(m, Program().add(RowRef::main(0), RowRef::main(1), t.bits)),
                       t.bits);
    } else if (op == "SUB") {
      fj = per_word_fj(m, execute(m, Program().sub(RowRef::main(0), RowRef::main(1), t.bits)),
                       t.bits);
    } else {
      fj = per_unit_fj(m, execute(m, Program().mult(RowRef::main(0), RowRef::main(1), t.bits)),
                       t.bits);
    }
    EXPECT_NEAR(fj, t.paper_fj, 0.06 * t.paper_fj)
        << op << " " << t.bits << "b sep=" << (t.sep == SeparatorMode::Enabled);
  }
}

TEST(MacroEnergyConservation, InstructionCostMatchesLedgerBitwise) {
  // The conservation law, per instruction: CostModel must price the exact
  // charge sequence of the sequencer -- same components, same bit counts,
  // same fold order -- so cycles match the reference ledger as integers and
  // energy as bitwise-identical doubles, across precisions, separator modes
  // and supply voltages.
  const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
  const RowRef d2 = RowRef::dummy(ImcMacro::kDummyAccum);
  const RowRef r0 = RowRef::main(0);
  const RowRef r1 = RowRef::main(1);
  for (const auto sep : {SeparatorMode::Enabled, SeparatorMode::Disabled}) {
    for (const double vdd : {0.9, 0.6}) {
      MacroConfig cfg;
      cfg.separator = sep;
      cfg.vdd = Volt(vdd);
      ReferenceLedger ledger{cfg};
      const CostModel cost(cfg);
      const auto expect_priced = [&](const InstructionCost& priced, const InstructionCost& want,
                                     const char* what, unsigned bits) {
        EXPECT_EQ(priced.cycles, want.cycles)
            << what << " bits=" << bits << " vdd=" << vdd
            << " sep=" << (sep == SeparatorMode::Enabled);
        EXPECT_EQ(priced.energy.si(), want.energy.si())
            << what << " bits=" << bits << " vdd=" << vdd
            << " sep=" << (sep == SeparatorMode::Enabled);
      };
      const auto expect_static = [&](const Instruction& inst, const char* what) {
        expect_priced(cost.instruction_cost(inst), ledger.charge(inst), what, inst.bits);
      };
      for (const unsigned bits : {2u, 4u, 8u, 16u}) {
        expect_static(instruction(Op::Add, r0, r1, bits), "ADD");
        expect_static(instruction(Op::Add, r0, r1, bits, d2), "ADD->D2");
        expect_static(instruction(Op::Sub, r0, r1, bits), "SUB");
        expect_static(instruction(Op::AddShift, r0, r1, bits, d2), "ADD-SHIFT");
        expect_static(instruction(Op::Not, r0, r0, bits, d1), "NOT");
        Instruction logic = instruction(Op::And, r0, r1, bits);
        logic.logic_fn = periph::LogicFn::Xor;
        expect_static(logic, "LOGIC");
        const Instruction mult = instruction(Op::Mult, r0, r1, bits);
        expect_static(mult, "MULT");

        // Chained MULTs: pipelined, and pipelined + D1-staged.
        const Instruction piped = instruction(Op::Mult, RowRef::main(2), RowRef::main(3), bits);
        expect_priced(cost.instruction_cost(piped, &mult),
                      ledger.charge(piped, MultPlan::full(bits, false, true)), "MULT piped",
                      bits);
        const Instruction staged = instruction(Op::Mult, piped.a, RowRef::main(5), bits);
        expect_priced(cost.instruction_cost(staged, &piped),
                      ledger.charge(staged, MultPlan::full(bits, true, true)), "MULT staged",
                      bits);
      }
    }
  }
}

TEST(MacroEnergyProperties, EnergyIndependentOfDataValues) {
  // Energy is priced by bits touched, not data (activity factors are
  // modelled as constants) -- two different operand sets must report
  // identical op energy.
  ImcMacro m{MacroConfig{}};
  Rng rng(9);
  BitVector r0(128), r1(128);
  r0.randomize(rng);
  r1.randomize(rng);
  const Program add = Program().add(RowRef::main(0), RowRef::main(1), 8);
  m.poke_row(0, r0);
  m.poke_row(1, r1);
  const double e1 = execute(m, add).energy.si();
  m.poke_row(0, BitVector(128));
  m.poke_row(1, BitVector(128));
  EXPECT_DOUBLE_EQ(execute(m, add).energy.si(), e1);
}

TEST(MacroEnergyProperties, LowerSupplyQuadraticallyCheaper) {
  MacroConfig lo;
  lo.vdd = Volt(0.6);
  ImcMacro m09{MacroConfig{}};
  ImcMacro m06{lo};
  const Program add = Program().add(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_NEAR(execute(m06, add).energy.si() / execute(m09, add).energy.si(),
              (0.6 / 0.9) * (0.6 / 0.9), 1e-9);
}

TEST(MacroEnergyProperties, SeparatorNeverCostsEnergy) {
  for (const unsigned bits : {2u, 4u, 8u, 16u}) {
    ImcMacro with{config_with(SeparatorMode::Enabled)};
    ImcMacro without{config_with(SeparatorMode::Disabled)};
    const Program mult = Program().mult(RowRef::main(0), RowRef::main(1), bits);
    EXPECT_LT(execute(with, mult).energy.si(), execute(without, mult).energy.si());
  }
}

}  // namespace
}  // namespace bpim::macro
