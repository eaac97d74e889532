// Cross-module integration: the proposed macro vs the bit-serial baseline
// (the Fig 9 mechanics), end-to-end consistency of results and accounting.

#include <gtest/gtest.h>

#include "app/vector_engine.hpp"
#include "baseline/bitserial.hpp"
#include "common/rng.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"

namespace bpim {
namespace {

using array::RowRef;

TEST(Integration, ProposedAndBaselineAgreeOnArithmetic) {
  // Same vector workload through both architectures: identical results.
  Rng rng(31);
  const std::size_t n = 48;
  std::vector<std::uint64_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.next_u64() & 0xFF;
    b[i] = rng.next_u64() & 0xFF;
  }

  macro::MemoryConfig mc;
  mc.banks = 1;
  mc.macros_per_bank = 1;
  macro::ImcMemory mem(mc);
  app::VectorEngine eng(mem, 8);
  const auto sum_p = eng.add(a, b);
  const auto prod_p = eng.mult(a, b);

  baseline::BitSerialMacro serial;
  for (std::size_t i = 0; i < n; ++i) {
    serial.poke_element(i, 0, 8, a[i]);
    serial.poke_element(i, 8, 8, b[i]);
  }
  serial.add(0, 8, 16, 8, n);
  serial.mult(0, 8, 32, 8, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(sum_p[i], serial.peek_element(i, 16, 8));
    EXPECT_EQ(prod_p[i], serial.peek_element(i, 32, 16));
  }
}

TEST(Integration, BitParallelWinsCyclesPerOpAtWideRows) {
  // The Fig 9 mechanism: at 128-bit rows and 8-bit ADD, the proposed macro
  // retires 16 word-ops per cycle; the baseline needs 9 cycles for 64.
  macro::MacroConfig cfg;
  macro::ImcMacro prop(cfg);
  const auto add = macro::Program().add(RowRef::main(0), RowRef::main(1), 8);
  const double prop_cpo = static_cast<double>(prop.cost_model().program_cost(add).cycles) /
                          static_cast<double>(prop.words_per_row(8));

  baseline::BitSerialMacro serial;
  const double base_cpo = static_cast<double>(baseline::BitSerialMacro::add_cycles(8)) /
                          static_cast<double>(serial.alus());
  EXPECT_LT(prop_cpo, base_cpo);  // 0.0625 vs 0.1406
}

TEST(Integration, MultCrossoverDependsOnRowWidth) {
  // 8-bit MULT: proposed cycles/op = (N+2) / (cols/2N). Narrow rows lose to
  // the baseline's 64 ALUs; wide rows win -- the Fig 9 crossover.
  auto prop_cpo = [](std::size_t cols) {
    macro::MacroConfig cfg;
    cfg.geometry.cols = cols;
    macro::ImcMacro m(cfg);
    const auto mult = macro::Program().mult(RowRef::main(0), RowRef::main(1), 8);
    return static_cast<double>(m.cost_model().program_cost(mult).cycles) /
           static_cast<double>(m.mult_units_per_row(8));
  };
  const double base_cpo = static_cast<double>(baseline::BitSerialMacro::mult_cycles(8)) / 64.0;
  EXPECT_GT(prop_cpo(128), base_cpo * 0.9);   // near/above crossover at 128
  EXPECT_LT(prop_cpo(512), base_cpo * 0.5);   // clearly ahead at 512
  EXPECT_LT(prop_cpo(1024), prop_cpo(512));   // keeps improving with BL count
}

TEST(Integration, SubResultsStableUnderRepeatedDummyReuse) {
  // SUB reuses the dummy operand row; back-to-back SUBs must not interfere.
  macro::ImcMacro m{macro::MacroConfig{}};
  Rng rng(33);
  for (int iter = 0; iter < 20; ++iter) {
    const std::uint64_t a = rng.next_u64() & 0xFF, b = rng.next_u64() & 0xFF;
    m.poke_word(0, 3, 8, a);
    m.poke_word(1, 3, 8, b);
    const BitVector d = m.sub_rows(RowRef::main(0), RowRef::main(1), 8);
    std::uint64_t got = 0;
    for (unsigned i = 0; i < 8; ++i)
      got |= static_cast<std::uint64_t>(d.get(3 * 8 + i)) << i;
    EXPECT_EQ(got, (a - b) & 0xFF);
  }
}

TEST(Integration, MultDoesNotClobberMainArray) {
  macro::ImcMacro m{macro::MacroConfig{}};
  Rng rng(34);
  BitVector r0(128), r1(128), r5(128);
  r0.randomize(rng);
  r1.randomize(rng);
  r5.randomize(rng);
  m.poke_row(0, r0);
  m.poke_row(1, r1);
  m.poke_row(5, r5);
  m.mult_rows(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_EQ(m.peek_row(0), r0);  // operands untouched (dummy rows did the work)
  EXPECT_EQ(m.peek_row(1), r1);
  EXPECT_EQ(m.peek_row(5), r5);
}

TEST(Integration, EnergyPerOpIndependentOfBatching) {
  // Vector-engine energy for V elements = V * per-word closed form.
  macro::MemoryConfig mc;
  mc.banks = 1;
  mc.macros_per_bank = 4;
  macro::ImcMemory mem(mc);
  app::VectorEngine eng(mem, 8);
  const auto a = std::vector<std::uint64_t>(256, 7);
  const auto b = std::vector<std::uint64_t>(256, 9);
  (void)eng.add(a, b);
  const double per_elem = in_fJ(eng.last_run().energy_per_element());
  const energy::EnergyModel ref;
  EXPECT_NEAR(per_elem, in_fJ(ref.add(8, Volt(0.9))), 1e-6);
}

TEST(Integration, ThroughputScalesWithMacroCount) {
  const auto run = [](std::size_t macros) {
    macro::MemoryConfig mc;
    mc.banks = 1;
    mc.macros_per_bank = macros;
    macro::ImcMemory mem(mc);
    app::VectorEngine eng(mem, 8);
    const std::vector<std::uint64_t> a(1024, 1), b(1024, 2);
    (void)eng.add(a, b);
    return eng.last_run().elapsed_cycles;
  };
  EXPECT_EQ(run(1), 4u * run(4));  // 4x macros -> 4x fewer lock-step layers
}

}  // namespace
}  // namespace bpim
