// 6T cell behavioural model: read current, disturb mechanisms, trip points.

#include <gtest/gtest.h>

#include "cell/sram6t.hpp"
#include "circuit/mosfet.hpp"
#include "common/stats.hpp"

namespace bpim::cell {
namespace {

using namespace bpim::literals;
using circuit::Corner;
using circuit::OperatingPoint;

OperatingPoint nominal() { return OperatingPoint{0.9_V, 25.0, Corner::NN}; }

Sram6tCell make_cell(const OperatingPoint& op = nominal()) {
  return Sram6tCell(CellGeometry{}, op);
}

TEST(Sram6t, ReadCurrentGrowsWithWlVoltage) {
  const auto cell = make_cell();
  const double i_wlud = cell.read_current(0.55_V, 0.9_V).si();
  const double i_full = cell.read_current(0.9_V, 0.9_V).si();
  EXPECT_GT(i_wlud, 0.5e-6);  // WLUD still discharges, just slowly
  EXPECT_GT(i_full, 3.0 * i_wlud);
}

TEST(Sram6t, ReadCurrentRealisticMagnitude) {
  const auto cell = make_cell();
  const double i = cell.read_current(0.9_V, 0.9_V).si();
  EXPECT_GT(i, 5e-6);
  EXPECT_LT(i, 60e-6);
}

TEST(Sram6t, NoCurrentIntoDischargedBl) {
  const auto cell = make_cell();
  EXPECT_DOUBLE_EQ(cell.read_current(0.9_V, 0.0_V).si(), 0.0);
}

TEST(Sram6t, BumpRisesWithWlVoltage) {
  const auto cell = make_cell();
  const double b_wlud = cell.bump_voltage(0.55_V, 0.9_V).si();
  const double b_full = cell.bump_voltage(0.9_V, 0.9_V).si();
  EXPECT_GT(b_full, b_wlud);
  EXPECT_LT(b_full, 0.5 * 0.9);  // read-stable cell: bump below half supply
}

TEST(Sram6t, SagFallsWithWlVoltageAtLowBl) {
  // The paper's Fig-1 hazard: stored '1' pulled toward a discharged BL.
  const auto cell = make_cell();
  const double q_wlud = cell.sag_voltage(0.55_V, 0.05_V).si();
  const double q_full = cell.sag_voltage(0.9_V, 0.05_V).si();
  EXPECT_LT(q_full, q_wlud);   // full-swing WL drags the node much lower
  EXPECT_LT(q_full, 0.3);      // deep collapse: would flip
  EXPECT_GT(q_wlud, 0.6);      // WLUD keeps the node safely high
}

TEST(Sram6t, SagBoundedByBlAndSupply) {
  const auto cell = make_cell();
  const double q = cell.sag_voltage(0.9_V, 0.2_V).si();
  EXPECT_GE(q, 0.2);
  EXPECT_LE(q, 0.9);
}

TEST(Sram6t, TripPointIsInteriorToSupply) {
  const auto cell = make_cell();
  EXPECT_GT(cell.trip_low().si(), 0.2);
  EXPECT_LT(cell.trip_low().si(), 0.7);
}

TEST(Sram6t, RegenerationDivergesAtMargin) {
  const auto cell = make_cell();
  const Volt trip = cell.trip_high();
  const double close = cell.regeneration_time(Volt(trip.si() - 0.005), trip).si();
  const double deep = cell.regeneration_time(Volt(trip.si() - 0.3), trip).si();
  EXPECT_GT(close, 10.0 * deep);
  EXPECT_LT(deep, 50e-12);  // deep flips regenerate in tens of ps
}

TEST(Sram6t, NominalCellSurvivesBothSchemes) {
  const auto cell = make_cell();
  // WLUD with collapsed BL: quasi-DC stress, nominal cell holds.
  EXPECT_FALSE(cell.flips_with_low_bl(0.55_V, 0.05_V, 2.0_ns));
  // Short full-swing pulse with only the initial droop present.
  EXPECT_FALSE(cell.flips_with_low_bl(0.9_V, 0.75_V, 140.0_ps));
  // Classic bump on the '0' side at full WL.
  EXPECT_FALSE(cell.flips_with_high_bl(0.9_V, 0.9_V, 140.0_ps));
}

TEST(Sram6t, FullSwingDcStressFlips) {
  // Unprotected: full WL held while the BL is collapsed -- the access
  // device crushes the '1' node. This is why the paper needs the short WL.
  const auto cell = make_cell();
  EXPECT_TRUE(cell.flips_with_low_bl(0.9_V, 0.05_V, 2.0_ns));
}

TEST(Sram6t, MismatchSamplingIsZeroMeanAndScaled) {
  Rng rng(3);
  RunningStats acc;
  for (int i = 0; i < 20000; ++i)
    acc.add(CellMismatch::sample(rng, CellGeometry{}).d_access.si());
  EXPECT_NEAR(acc.mean(), 0.0, 1e-3);
  const double expected =
      circuit::Mosfet::mismatch_sigma(CellGeometry{}.w_access_um).si();
  EXPECT_NEAR(acc.stddev(), expected, 0.1 * expected);
}

TEST(Sram6t, WeakAccessTailFlipsUnderWlud) {
  // A cell with a strongly lowered access Vt and weakened pull-up is the
  // disturb tail the iso-ADM target counts.
  CellMismatch mm;
  mm.d_access = Volt(-0.12);
  mm.d_pullup = Volt(+0.10);
  const Sram6tCell weak(CellGeometry{}, nominal(), mm);
  EXPECT_TRUE(weak.flips_with_low_bl(0.55_V, 0.05_V, 2.0_ns));
}

TEST(Sram6t, SlowCornerReadsSlower) {
  const auto fast = make_cell(OperatingPoint{0.9_V, 25.0, Corner::FF});
  const auto slow = make_cell(OperatingPoint{0.9_V, 25.0, Corner::SS});
  EXPECT_GT(fast.read_current(0.9_V, 0.9_V).si(), slow.read_current(0.9_V, 0.9_V).si());
}

TEST(Sram6t, LowBlFlipMatchesTheExactTripCriterion) {
  // flips_with_low_bl may stop bisecting the trip point early; its verdict
  // must equal the one built from the fully bisected trip_high().
  Rng rng(0x7219);
  int flips = 0, holds = 0;
  for (int n = 0; n < 200; ++n) {
    const Sram6tCell cell(CellGeometry{}, nominal(), CellMismatch::sample(rng, CellGeometry{}));
    for (const double v_wl : {0.55, 0.7, 0.9}) {
      for (const double v_bl : {0.04, 0.2, 0.5}) {
        for (const Second dur : {Second(20e-12), Second(2e-9)}) {
          const Volt vq = cell.sag_voltage(Volt(v_wl), Volt(v_bl));
          const Volt trip = cell.trip_high();
          const bool want = vq.si() < trip.si() &&
                            dur.si() >= cell.regeneration_time(vq, trip).si();
          EXPECT_EQ(cell.flips_with_low_bl(Volt(v_wl), Volt(v_bl), dur), want);
          (want ? flips : holds) += 1;
        }
      }
    }
  }
  EXPECT_GT(flips, 0);
  EXPECT_GT(holds, 0);
}

}  // namespace
}  // namespace bpim::cell
