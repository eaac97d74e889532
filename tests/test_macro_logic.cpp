// ImcMacro: storage access and single-cycle logic operations.

#include <gtest/gtest.h>

#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using periph::LogicFn;

ImcMacro make_macro() { return ImcMacro(MacroConfig{}); }

TEST(MacroLogic, GeometryAndWordCounts) {
  auto m = make_macro();
  EXPECT_EQ(m.rows(), 128u);
  EXPECT_EQ(m.cols(), 128u);
  EXPECT_EQ(m.words_per_row(8), 16u);
  EXPECT_EQ(m.words_per_row(2), 64u);
  EXPECT_EQ(m.mult_units_per_row(8), 8u);
  EXPECT_EQ(m.mult_units_per_row(2), 32u);
}

TEST(MacroLogic, PokePeekRowAndWord) {
  auto m = make_macro();
  BitVector row(128);
  row.set(5, true);
  m.poke_row(3, row);
  EXPECT_EQ(m.peek_row(3), row);

  m.poke_word(4, 2, 8, 0xAB);
  EXPECT_EQ(m.peek_word(4, 2, 8), 0xABu);
  EXPECT_EQ(m.peek_word(4, 1, 8), 0u);
  EXPECT_THROW(m.poke_word(4, 16, 8, 1), std::invalid_argument);
  EXPECT_THROW(m.poke_word(4, 0, 8, 256), std::invalid_argument);
}

TEST(MacroLogic, MultOperandLayout) {
  auto m = make_macro();
  m.poke_mult_operand(0, 1, 8, 0xC3);
  // Low half of unit 1 (columns 16..23) holds the operand, high half zero.
  EXPECT_EQ(m.peek_word(0, 2, 8), 0xC3u);
  EXPECT_EQ(m.peek_word(0, 3, 8), 0u);
}

TEST(MacroLogic, AllDualWlLogicFunctions) {
  auto m = make_macro();
  const std::uint64_t a = 0xF0F0F0F0F0F0F0F0ull;
  const std::uint64_t b = 0xCCCCCCCCCCCCCCCCull;
  for (unsigned w = 0; w < 2; ++w) {
    m.poke_word(0, w, 32, (w ? a >> 32 : a) & 0xFFFFFFFFull);
    m.poke_word(1, w, 32, (w ? b >> 32 : b) & 0xFFFFFFFFull);
  }
  const auto check = [&](LogicFn fn, std::uint64_t expect) {
    const BitVector r = m.logic_rows(fn, RowRef::main(0), RowRef::main(1));
    std::uint64_t got = 0;
    for (unsigned i = 0; i < 64; ++i) got |= static_cast<std::uint64_t>(r.get(i)) << i;
    EXPECT_EQ(got, expect) << periph::to_string(fn);
  };
  check(LogicFn::And, a & b);
  check(LogicFn::Nand, ~(a & b));
  check(LogicFn::Or, a | b);
  check(LogicFn::Nor, ~(a | b));
  check(LogicFn::Xor, a ^ b);
  check(LogicFn::Xnor, ~(a ^ b));
}

TEST(MacroLogic, UnaryNotCopyShift) {
  auto m = make_macro();
  m.poke_word(7, 0, 8, 0b10110001);
  const RowRef dest = RowRef::dummy(ImcMacro::kDummyOperand);

  const BitVector n = m.unary_row(Op::Not, RowRef::main(7), dest, 8);
  EXPECT_EQ(n.to_u64() & 0xFF, 0b01001110u);
  EXPECT_EQ(m.cost_model().program_cost(Program().unary(Op::Not, RowRef::main(7), dest, 8)).cycles,
            1u);
  EXPECT_EQ(m.sram().row(dest), n);  // written back

  const BitVector c = m.unary_row(Op::Copy, RowRef::main(7), dest, 8);
  EXPECT_EQ(c.to_u64() & 0xFF, 0b10110001u);

  const BitVector s = m.unary_row(Op::Shift, RowRef::main(7), dest, 8);
  EXPECT_EQ(s.to_u64() & 0xFF, 0b01100010u);  // <<1 within the 8-bit word
}

TEST(MacroLogic, ShiftRespectsPrecisionBoundaries) {
  auto m = make_macro();
  m.poke_word(0, 0, 4, 0b1001);
  m.poke_word(0, 1, 4, 0b0111);
  const BitVector s = m.unary_row(Op::Shift, RowRef::main(0), RowRef::dummy(0), 4);
  EXPECT_EQ(s.to_u64() & 0xF, 0b0010u);         // MSB dropped, not carried over
  EXPECT_EQ((s.to_u64() >> 4) & 0xF, 0b1110u);  // independent word
}

TEST(MacroLogic, UnaryRejectsArithmeticOps) {
  auto m = make_macro();
  EXPECT_THROW(m.unary_row(Op::Add, RowRef::main(0), RowRef::dummy(0), 8),
               std::invalid_argument);
}

TEST(MacroLogic, LogicOpsCostOneCycleEachInAProgram) {
  auto m = make_macro();
  MacroController ctl(m);
  Program p;
  for (const LogicFn fn : {LogicFn::And, LogicFn::Nand, LogicFn::Or, LogicFn::Nor, LogicFn::Xor,
                           LogicFn::Xnor})
    p.logic(fn, RowRef::main(0), RowRef::main(1));
  const ProgramStats st = ctl.run(verify(p, m.config().geometry));
  EXPECT_EQ(st.cycles, 6u);
  EXPECT_GT(st.energy.si(), 0.0);
}

TEST(MacroLogic, NeedsThreeDummyRows) {
  MacroConfig cfg;
  cfg.geometry.dummy_rows = 2;
  EXPECT_THROW(ImcMacro{cfg}, std::invalid_argument);
}

TEST(MacroLogic, FmaxMatchesFreqModelForProposedScheme) {
  auto m = make_macro();
  EXPECT_NEAR(in_GHz(m.fmax()), 1.658, 0.02);  // 0.9 V default
}

TEST(MacroLogic, WludSchemeIsMuchSlower) {
  MacroConfig slow;
  slow.wl_scheme = WlScheme::Wlud;
  const ImcMacro m_wlud(slow);
  const ImcMacro m_prop(MacroConfig{});
  EXPECT_LT(m_wlud.fmax().si(), 0.5 * m_prop.fmax().si());
}

}  // namespace
}  // namespace bpim::macro
