// Differential tests of MULT's closed form.
//
// With no disturb to draw, ImcMacro evaluates the add-and-shift iterations
// as one host multiply per 2N-bit unit: D2_u = D1_u * (FF_u mod 2^depth)
// mod 2^2N, with D1 read as it stands. These tests check that form against
// three independent references -- the seed's per-bit datapath
// (baseline::naive_mult_datapath), a per-unit integer stepping of the
// MSB-first add-and-shift loop, and the formula itself -- across every
// precision, at 128 columns and at widths that end mid-word, on both entry
// points (mult_rows with every adaptive policy, and mult_rows_planned with
// hand-built plans: depths below the precision, skips, and d1-staged links
// whose D1 holds high-half bits). CostModel's price of each plan must equal
// the plan's cycles and the reference ledger's charge-by-charge fold, bit
// for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baseline/naive_datapath.hpp"
#include "common/rng.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "reference_ledger.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;

const RowRef kD1 = RowRef::dummy(ImcMacro::kDummyOperand);
const RowRef kD2 = RowRef::dummy(ImcMacro::kDummyAccum);

std::uint64_t low_bits(unsigned n) { return n >= 64 ? ~0ull : (1ull << n) - 1; }

/// The closed form, unit by unit.
BitVector formula(const BitVector& d1, const BitVector& ff, unsigned bits, unsigned depth) {
  const unsigned unit = 2 * bits;
  BitVector out(d1.size());
  for (std::size_t u = 0; u < d1.size() / unit; ++u) {
    const std::uint64_t x = d1.extract_bits(u * unit, unit);
    const std::uint64_t f = ff.extract_bits(u * unit, bits) & low_bits(depth);
    out.deposit_bits(u * unit, unit, (x * f) & low_bits(unit));
  }
  return out;
}

/// The add-and-shift loop stepped on integers: iteration k releases
/// multiplier bit bits-1-k, adds D1 when it is set, and shifts except on
/// the last iteration; a depth-d plan runs the last d iterations.
BitVector stepped(const BitVector& d1, const BitVector& ff, unsigned bits, unsigned depth) {
  const unsigned unit = 2 * bits;
  BitVector out(d1.size());
  for (std::size_t u = 0; u < d1.size() / unit; ++u) {
    const std::uint64_t x = d1.extract_bits(u * unit, unit);
    const std::uint64_t f = ff.extract_bits(u * unit, bits);
    std::uint64_t acc = 0;
    for (unsigned k = bits - depth; k < bits; ++k) {
      if ((f >> (bits - 1 - k)) & 1) acc = (acc + x) & low_bits(unit);
      if (k + 1 < bits) acc = (acc << 1) & low_bits(unit);
    }
    out.deposit_bits(u * unit, unit, acc);
  }
  return out;
}

/// MULT's charge sequence under `plan`, folded left by the reference ledger.
Joule charge_fold(const ImcMacro& m, unsigned bits, const MultPlan& plan) {
  return ReferenceLedger(m.config()).charge(instruction(Op::Mult, kD1, kD2, bits), plan).energy;
}

Instruction mult_inst(unsigned bits) {
  Instruction i;
  i.op = Op::Mult;
  i.a = RowRef::main(0);
  i.b = RowRef::main(1);
  i.bits = bits;
  return i;
}

MacroConfig config(std::size_t cols, bool disturb_at_zero) {
  MacroConfig cfg;
  cfg.geometry.cols = cols;
  // ShortPulseBoost's flip probability is 0: injection on draws nothing,
  // so MULT must still take the closed form.
  cfg.wl_scheme = WlScheme::ShortPulseBoost;
  cfg.inject_disturb = disturb_at_zero;
  return cfg;
}

/// Fills rows 0 and 1 with MULT operands: random of random width, with
/// every edge value (0, 1, all ones, top bit only) spliced in.
void load_operands(ImcMacro& m, unsigned bits, Rng& rng) {
  const std::size_t units = m.mult_units_per_row(bits);
  const std::uint64_t max = low_bits(bits);
  const std::uint64_t edges[] = {0, 1, max, 1ull << (bits - 1)};
  for (std::size_t r = 0; r < 2; ++r) {
    std::vector<std::uint64_t> v(units);
    for (std::size_t u = 0; u < units; ++u) {
      const unsigned width = 1 + static_cast<unsigned>(rng.next_u64() % bits);
      v[u] = rng.next_u64() % 3 == 0 ? edges[rng.next_u64() % 4] : rng.next_u64() & low_bits(width);
    }
    m.poke_mult_operands(r, 0, bits, v);
  }
}

/// Checks one MULT that just ran on `m` with operand rows 0/1: D2 and the
/// returned reference, D1, and the plan's price. `d1_before` is D1 as it
/// stood when the add-shift iterations began.
void expect_mult(const ImcMacro& m, const BitVector& d2_ref, unsigned bits, const MultPlan& plan,
                 const BitVector& d1_before, const std::string& where) {
  const BitVector& d1 = m.sram().row(kD1);
  const BitVector& d2 = m.sram().row(kD2);
  const BitVector& b = m.peek_row(1);
  EXPECT_EQ(&d2_ref, &d2) << where << ": MULT returns the D2 row";
  EXPECT_EQ(d1, d1_before) << where << ": D1 is only read by the iterations";
  EXPECT_EQ(d2, formula(d1_before, b, bits, plan.depth)) << where;
  EXPECT_EQ(d2, stepped(d1_before, b, bits, plan.depth)) << where;
  const InstructionCost priced = m.cost_model().instruction_cost(mult_inst(bits), plan);
  EXPECT_EQ(priced.cycles, plan.cycles()) << where;
  EXPECT_EQ(priced.energy.si(), charge_fold(m, bits, plan).si()) << where << ": CostModel vs fold";
  EXPECT_EQ(m.disturb_flips(), 0u) << where;
}

BitVector masked_low_halves(const BitVector& row, unsigned bits) {
  BitVector out(row.size());
  for (std::size_t u = 0; u < row.size() / (2 * bits); ++u)
    out.deposit_bits(u * 2 * bits, bits, row.extract_bits(u * 2 * bits, bits));
  return out;
}

constexpr std::size_t kWidths[] = {128, 192, 96};  // 96 ends mid-word

void sweep_mult_rows(bool disturb_at_zero) {
  Rng rng(0xC105ED);
  const AdaptivePolicy policies[] = {{}, {true, false}, {false, true}, {true, true}};
  for (const std::size_t cols : kWidths) {
    for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
      if (cols % (2 * bits) != 0) continue;
      ImcMacro m{config(cols, disturb_at_zero)};
      for (int rep = 0; rep < 12; ++rep) {
        load_operands(m, bits, rng);
        const BitVector a = m.peek_row(0);
        const BitVector b = m.peek_row(1);
        const BitVector naive = baseline::naive_mult_datapath(a, b, bits);
        for (const AdaptivePolicy& policy : policies) {
          const MultPlan plan = m.plan_mult(RowRef::main(0), RowRef::main(1), bits, policy);
          const std::string where = "cols=" + std::to_string(cols) +
                                    " bits=" + std::to_string(bits) +
                                    " depth=" + std::to_string(plan.depth) +
                                    " skip=" + std::to_string(plan.skip);
          const BitVector& d2 = m.mult_rows(RowRef::main(0), RowRef::main(1), bits, policy);
          EXPECT_EQ(d2, naive) << where << ": vs the per-bit datapath";
          // A skipped MULT leaves D1 unstaged; otherwise it holds a's low halves.
          const BitVector d1 = m.sram().row(kD1);
          if (!plan.skip) {
            EXPECT_EQ(d1, masked_low_halves(a, bits)) << where;
          }
          expect_mult(m, d2, bits, plan, d1, where);
        }
      }
    }
  }
}

TEST(MultClosedForm, MultRowsMatchesReferencesUnderEveryPolicy) { sweep_mult_rows(false); }

TEST(MultClosedForm, DisturbInjectionAtZeroProbabilityTakesTheClosedForm) {
  ASSERT_EQ(DisturbModel::for_scheme(WlScheme::ShortPulseBoost).flip_probability, 0.0);
  sweep_mult_rows(true);
}

void sweep_planned(bool disturb_at_zero) {
  Rng rng(0x91A77ED);
  for (const std::size_t cols : kWidths) {
    for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
      if (cols % (2 * bits) != 0) continue;
      ImcMacro m{config(cols, disturb_at_zero)};
      BitVector full(cols);
      for (int rep = 0; rep < 4; ++rep) {
        load_operands(m, bits, rng);
        full.randomize(rng);
        m.poke_row(2, full);
        for (unsigned depth = 0; depth <= bits; ++depth) {
          const std::string where = "cols=" + std::to_string(cols) +
                                    " bits=" + std::to_string(bits) +
                                    " depth=" + std::to_string(depth);
          // Staged from a: D1 = a's low halves, depth below the precision.
          const MultPlan own{depth, false, false, false};
          const BitVector& d2 = m.mult_rows_planned(RowRef::main(0), RowRef::main(1), bits, own);
          expect_mult(m, d2, bits, own, masked_low_halves(m.peek_row(0), bits), where + " own");
          // A d1-staged link over a D1 that holds a full random row, high
          // halves included: the iterations read D1 as it stands.
          (void)m.unary_row(Op::Copy, RowRef::main(2), kD1, bits);
          const MultPlan linked{depth, false, true, true};
          const BitVector& d2l =
              m.mult_rows_planned(RowRef::main(0), RowRef::main(1), bits, linked);
          expect_mult(m, d2l, bits, linked, full, where + " staged");
          EXPECT_NE(m.sram().row(kD1), masked_low_halves(full, bits)) << where << " high halves";
        }
        // Skipped: no staging, no iterations, D2 stays zero.
        const BitVector d1 = m.sram().row(kD1);
        for (const bool pipelined : {false, true}) {
          const MultPlan skip{0, true, false, pipelined};
          const BitVector& d2 = m.mult_rows_planned(RowRef::main(0), RowRef::main(1), bits, skip);
          expect_mult(m, d2, bits, skip, d1, "skip");
          EXPECT_EQ(d2, BitVector(cols)) << "skip";
        }
      }
    }
  }
}

TEST(MultClosedForm, PlannedMatchesReferencesForHandBuiltPlans) { sweep_planned(false); }

TEST(MultClosedForm, PlannedAtZeroDisturbProbabilityTakesTheClosedForm) { sweep_planned(true); }

TEST(MultClosedForm, PriceTableEqualsTheChargeFoldAtEveryDepth) {
  for (const std::size_t cols : kWidths) {
    const ImcMacro m{config(cols, false)};
    for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
      for (unsigned depth = 0; depth <= bits; ++depth) {
        for (const bool staged : {false, true}) {
          const MultPlan plan{depth, false, staged, staged};
          EXPECT_EQ(m.cost_model().instruction_cost(mult_inst(bits), plan).energy.si(),
                    charge_fold(m, bits, plan).si())
              << "cols=" << cols << " bits=" << bits << " depth=" << depth << " staged=" << staged;
        }
      }
      const MultPlan skip{0, true, false, false};
      EXPECT_EQ(m.cost_model().instruction_cost(mult_inst(bits), skip).energy.si(),
                charge_fold(m, bits, skip).si());
    }
  }
}

}  // namespace
}  // namespace bpim::macro
