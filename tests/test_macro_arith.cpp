// ImcMacro: ADD / SUB / ADD-Shift across precisions, property-style.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;

class MacroArith : public ::testing::TestWithParam<unsigned> {
 protected:
  ImcMacro macro_{MacroConfig{}};
  Rng rng_{GetParam() * 7919u};

  [[nodiscard]] std::uint64_t mask() const {
    const unsigned bits = GetParam();
    return bits >= 64 ? ~0ull : (1ull << bits) - 1;
  }
};

TEST_P(MacroArith, AddAllWordsOfARowPair) {
  const unsigned bits = GetParam();
  const std::size_t words = macro_.words_per_row(bits);
  std::vector<std::uint64_t> a(words), b(words);
  for (std::size_t w = 0; w < words; ++w) {
    a[w] = rng_.next_u64() & mask();
    b[w] = rng_.next_u64() & mask();
    macro_.poke_word(0, w, bits, a[w]);
    macro_.poke_word(1, w, bits, b[w]);
  }
  const BitVector sum = macro_.add_rows(RowRef::main(0), RowRef::main(1), bits);
  const Program add = Program().add(RowRef::main(0), RowRef::main(1), bits);
  EXPECT_EQ(macro_.cost_model().program_cost(add).cycles, op_cycles(Op::Add, bits));
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t s = 0;
    for (unsigned i = 0; i < bits; ++i)
      s |= static_cast<std::uint64_t>(sum.get(w * bits + i)) << i;
    EXPECT_EQ(s, (a[w] + b[w]) & mask()) << "word " << w;
  }
}

TEST_P(MacroArith, SubIsTwosComplement) {
  const unsigned bits = GetParam();
  const std::size_t words = macro_.words_per_row(bits);
  std::vector<std::uint64_t> a(words), b(words);
  for (std::size_t w = 0; w < words; ++w) {
    a[w] = rng_.next_u64() & mask();
    b[w] = rng_.next_u64() & mask();
    macro_.poke_word(0, w, bits, a[w]);
    macro_.poke_word(1, w, bits, b[w]);
  }
  const BitVector diff = macro_.sub_rows(RowRef::main(0), RowRef::main(1), bits);
  const Program sub = Program().sub(RowRef::main(0), RowRef::main(1), bits);
  EXPECT_EQ(macro_.cost_model().program_cost(sub).cycles, 2u);  // Table 1: SUB takes 2 cycles
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t d = 0;
    for (unsigned i = 0; i < bits; ++i)
      d |= static_cast<std::uint64_t>(diff.get(w * bits + i)) << i;
    EXPECT_EQ(d, (a[w] - b[w]) & mask()) << "word " << w;
  }
}

TEST_P(MacroArith, AddShiftIsSumTimesTwo) {
  const unsigned bits = GetParam();
  const std::size_t words = macro_.words_per_row(bits);
  std::vector<std::uint64_t> a(words), b(words);
  for (std::size_t w = 0; w < words; ++w) {
    // Keep sums below half range so the shifted value is (a+b)*2 exactly.
    a[w] = rng_.next_u64() & (mask() >> 2);
    b[w] = rng_.next_u64() & (mask() >> 2);
    macro_.poke_word(0, w, bits, a[w]);
    macro_.poke_word(1, w, bits, b[w]);
  }
  const RowRef dest = RowRef::dummy(ImcMacro::kDummyAccum);
  const BitVector out = macro_.add_shift_rows(RowRef::main(0), RowRef::main(1), bits, dest);
  const Program add_shift = Program().add_shift(RowRef::main(0), RowRef::main(1), bits, dest);
  EXPECT_EQ(macro_.cost_model().program_cost(add_shift).cycles, 1u);  // single-cycle add-shift
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t s = 0;
    for (unsigned i = 0; i < bits; ++i)
      s |= static_cast<std::uint64_t>(out.get(w * bits + i)) << i;
    EXPECT_EQ(s, ((a[w] + b[w]) << 1) & mask()) << "word " << w;
  }
  EXPECT_EQ(macro_.sram().row(dest), out);  // written back for iteration
}

TEST_P(MacroArith, AddWithWritebackStoresResult) {
  const unsigned bits = GetParam();
  macro_.poke_word(0, 0, bits, 1);
  macro_.poke_word(1, 0, bits, 2);
  const RowRef dest = RowRef::dummy(ImcMacro::kDummyZero);
  const BitVector sum =
      macro_.add_rows(RowRef::main(0), RowRef::main(1), bits, dest);
  EXPECT_EQ(macro_.sram().row(dest), sum);
}

INSTANTIATE_TEST_SUITE_P(Precisions, MacroArith, ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(MacroArithEdge, AddWrapsAtPrecision) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 0xFF);
  m.poke_word(1, 0, 8, 0x01);
  const BitVector s = m.add_rows(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_EQ(s.to_u64() & 0xFF, 0x00u);
  // Neighbouring word must stay clean (MX3 segmentation).
  EXPECT_EQ((s.to_u64() >> 8) & 0xFF, 0x00u);
}

TEST(MacroArithEdge, SubZeroAndIdentity) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 0x5A);
  m.poke_word(1, 0, 8, 0x5A);
  EXPECT_EQ(m.sub_rows(RowRef::main(0), RowRef::main(1), 8).to_u64() & 0xFF, 0u);
  m.poke_word(1, 0, 8, 0x00);
  EXPECT_EQ(m.sub_rows(RowRef::main(0), RowRef::main(1), 8).to_u64() & 0xFF, 0x5Au);
}

TEST(MacroArithEdge, SubNegativeWrapsModulo) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 3);
  m.poke_word(1, 0, 8, 5);
  EXPECT_EQ(m.sub_rows(RowRef::main(0), RowRef::main(1), 8).to_u64() & 0xFF, 0xFEu);  // -2
}

TEST(MacroArithEdge, UnsupportedPrecisionRejected) {
  ImcMacro m{MacroConfig{}};
  EXPECT_THROW(m.add_rows(RowRef::main(0), RowRef::main(1), 3), std::invalid_argument);
}

TEST(MacroArithEdge, DummyRowsUsableAsOperands) {
  // SUB leaves ~b in the dummy operand row; computing with it directly must
  // work (main+dummy share BLs when the separator is closed).
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 0x21);
  BitVector inverted(128);
  inverted.fill(false);
  for (unsigned i = 0; i < 8; ++i) inverted.set(i, ((0x0F >> i) & 1u) != 0);
  m.poke_row(1, inverted);  // place 0x0F via row 1 then copy into dummy
  m.unary_row(Op::Copy, array::RowRef::main(1), array::RowRef::dummy(0), 8);
  const BitVector s = m.add_rows(RowRef::main(0), RowRef::dummy(0), 8);
  EXPECT_EQ(s.to_u64() & 0xFF, 0x30u);
}

}  // namespace
}  // namespace bpim::macro
