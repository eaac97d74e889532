// Physical scaling checks that cut across modules: bit-line length vs
// delay, macro decorrelation, and static-vs-dynamic cycle agreement.

#include <gtest/gtest.h>

#include "app/vector_engine.hpp"
#include "common/rng.hpp"
#include "macro/memory.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "timing/bl_compute.hpp"

namespace bpim {
namespace {

using namespace bpim::literals;

TEST(BlScaling, LongerBitlinesAreSlowerBothSchemes) {
  // The timing face of Fig 9's "BL size": more cells per BL = more
  // capacitance = slower evaluation, for both WL schemes.
  const circuit::OperatingPoint op{0.9_V, 25.0, circuit::Corner::NN};
  for (const auto scheme : {timing::BlScheme::Wlud, timing::BlScheme::ShortWlBoost}) {
    double prev = 0.0;
    for (const std::size_t rows : {64u, 128u, 256u, 512u}) {
      timing::BlComputeConfig cfg;
      cfg.rows = rows;
      cfg.t_end = Second(30e-9);
      const double d = timing::BlComputeModel(scheme, cfg, op).nominal_delay().si();
      EXPECT_GT(d, prev) << timing::to_string(scheme) << " rows=" << rows;
      prev = d;
    }
  }
}

TEST(BlScaling, BoostAdvantageHoldsAcrossBlLengths) {
  const circuit::OperatingPoint op{0.9_V, 25.0, circuit::Corner::NN};
  for (const std::size_t rows : {64u, 128u, 256u}) {
    timing::BlComputeConfig cfg;
    cfg.rows = rows;
    const double prop =
        timing::BlComputeModel(timing::BlScheme::ShortWlBoost, cfg, op).nominal_delay().si();
    const double wlud =
        timing::BlComputeModel(timing::BlScheme::Wlud, cfg, op).nominal_delay().si();
    EXPECT_LT(prop, 0.6 * wlud) << "rows=" << rows;
  }
}

TEST(BlScaling, ShortPulseDroopShrinksWithBlLength) {
  // Same pulse, bigger capacitance -> smaller initial droop -> later boost
  // trigger. The delay gap between 64- and 512-cell BLs must exceed the
  // pure-RC ratio of a WLUD-style discharge gap (regenerative lateness).
  const circuit::OperatingPoint op{0.9_V, 25.0, circuit::Corner::NN};
  timing::BlComputeConfig small;
  small.rows = 64;
  timing::BlComputeConfig large;
  large.rows = 512;
  large.t_end = Second(30e-9);
  const double d_small =
      timing::BlComputeModel(timing::BlScheme::ShortWlBoost, small, op).nominal_delay().si();
  const double d_large =
      timing::BlComputeModel(timing::BlScheme::ShortWlBoost, large, op).nominal_delay().si();
  EXPECT_GT(d_large / d_small, 2.0);
}

TEST(MemoryDisturb, MacrosFlipIndependently) {
  // Seeds are decorrelated per macro: under the unprotected scheme, two
  // macros stressing identical data must not corrupt identical cells.
  macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = 2;
  cfg.macro.wl_scheme = macro::WlScheme::FullSwingLong;
  cfg.macro.inject_disturb = true;
  macro::ImcMemory mem(cfg);

  BitVector ones(128);
  ones.fill(true);
  for (std::size_t m = 0; m < 2; ++m) {
    mem.macro(m).poke_row(0, ones);
    mem.macro(m).poke_row(1, BitVector(128));
    mem.macro(m).logic_rows(periph::LogicFn::And, array::RowRef::main(0),
                            array::RowRef::main(1));
  }
  EXPECT_GT(mem.macro(0).disturb_flips(), 0u);
  EXPECT_GT(mem.macro(1).disturb_flips(), 0u);
  EXPECT_FALSE(mem.macro(0).peek_row(0) == mem.macro(1).peek_row(0));
}

TEST(ProgramCycles, StaticEstimateMatchesExecution) {
  macro::ImcMacro m{macro::MacroConfig{}};
  macro::MacroController ctl(m);
  macro::Program p;
  p.add(array::RowRef::main(0), array::RowRef::main(1), 8)
      .sub(array::RowRef::main(2), array::RowRef::main(3), 16)
      .mult(array::RowRef::main(4), array::RowRef::main(5), 4)
      .unary(macro::Op::Copy, array::RowRef::main(6), array::RowRef::dummy(0), 8);
  const auto stats = ctl.run(macro::verify(p, m.config().geometry));
  EXPECT_EQ(stats.cycles, p.static_cycles());
}

TEST(MemoryScale, WiderMemoryHoldsLongerVectorsPerLayer) {
  macro::MemoryConfig small;
  small.banks = 1;
  small.macros_per_bank = 1;
  macro::MemoryConfig large;  // default 4x16
  macro::ImcMemory mem_s(small), mem_l(large);
  app::VectorEngine e_s(mem_s, 8), e_l(mem_l, 8);
  EXPECT_EQ(e_s.layer_capacity(), 16u);
  EXPECT_EQ(e_l.layer_capacity(), 16u * 64u);
}

}  // namespace
}  // namespace bpim
