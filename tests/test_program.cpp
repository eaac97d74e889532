// Program / MacroController: verification, execution, tracing.

#include <gtest/gtest.h>

#include <algorithm>

#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "trace_recorder.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;
using periph::LogicFn;

TEST(Program, BuilderAccumulatesAndCostsStatically) {
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8)
      .sub(RowRef::main(2), RowRef::main(3), 8)
      .mult(RowRef::main(4), RowRef::main(5), 8)
      .unary(Op::Not, RowRef::main(6), RowRef::dummy(0), 8);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.static_cycles(), 1u + 2u + 10u + 1u);
}

TEST(Program, LogicBuilderRejectsSingleWlFunctions) {
  Program p;
  EXPECT_THROW(p.logic(LogicFn::PassA, RowRef::main(0), RowRef::main(1)),
               std::invalid_argument);
  EXPECT_THROW(p.logic(LogicFn::NotA, RowRef::main(0), RowRef::main(1)),
               std::invalid_argument);
}

TEST(Program, UnaryBuilderRejectsArithmetic) {
  Program p;
  EXPECT_THROW(p.unary(Op::Add, RowRef::main(0), RowRef::dummy(0), 8), std::invalid_argument);
}

/// True when the verifier reports an Error of `kind` on `p`.
bool rejects_with(const Program& p, const array::ArrayGeometry& g, DiagKind kind) {
  const VerifyReport rep = verify_program(p, g);
  return std::any_of(rep.diagnostics.begin(), rep.diagnostics.end(), [&](const Diagnostic& d) {
    return d.severity == Severity::Error && d.kind == kind;
  });
}

TEST(Controller, ValidatesRowsAndPrecisionUpfront) {
  // Malformed rows, destinations and precisions are verifier Errors, each
  // reported by kind, and verify() refuses to seal them.
  const array::ArrayGeometry g = MacroConfig{}.geometry;

  Program bad_row;
  bad_row.add(RowRef::main(0), RowRef::main(200), 8);
  EXPECT_TRUE(rejects_with(bad_row, g, DiagKind::RowOutOfRange));
  EXPECT_THROW((void)verify(bad_row, g), std::invalid_argument);

  Program same_row;
  same_row.add(RowRef::main(3), RowRef::main(3), 8);
  EXPECT_TRUE(rejects_with(same_row, g, DiagKind::IdenticalRows));
  EXPECT_THROW((void)verify(same_row, g), std::invalid_argument);

  Program no_dest;
  Instruction shift;
  shift.op = Op::Shift;
  shift.a = RowRef::main(0);
  no_dest.push(shift);
  EXPECT_TRUE(rejects_with(no_dest, g, DiagKind::MissingDest));
  EXPECT_THROW((void)verify(no_dest, g), std::invalid_argument);

  Program bad_bits;
  Instruction add;
  add.op = Op::Add;
  add.a = RowRef::main(0);
  add.b = RowRef::main(1);
  add.bits = 5;
  bad_bits.push(add);
  EXPECT_TRUE(rejects_with(bad_bits, g, DiagKind::BadPrecision));
  EXPECT_THROW((void)verify(bad_bits, g), std::invalid_argument);

  array::ArrayGeometry odd = g;
  odd.cols = 96;
  Program untiled;
  untiled.mult(RowRef::main(0), RowRef::main(1), 32);  // 64-column units in 96
  EXPECT_TRUE(rejects_with(untiled, odd, DiagKind::WidthMismatch));
  EXPECT_THROW((void)verify(untiled, odd), std::invalid_argument);

  Program ok;
  ok.add(RowRef::main(0), RowRef::main(1), 8);
  EXPECT_NO_THROW((void)verify(ok, g));
}

TEST(Controller, RejectionLeavesMacroUntouched) {
  // A bad instruction anywhere rejects the whole program at verify time:
  // the valid prefix never gets the chance to run either.
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 9);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8);   // fine
  p.add(RowRef::main(0), RowRef::main(999), 8); // invalid
  const VerifyReport rep = verify_program(p, m);
  ASSERT_EQ(rep.errors, 1u);
  EXPECT_EQ(rep.diagnostics.front().kind, DiagKind::RowOutOfRange);
  EXPECT_EQ(rep.diagnostics.front().instruction, 1u);
  EXPECT_THROW((void)verify(p, m.config().geometry), std::invalid_argument);
}

TEST(Controller, RunsAndAggregatesStats) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 20);
  m.poke_word(1, 0, 8, 30);
  MacroController ctl(m);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8).sub(RowRef::main(0), RowRef::main(1), 8);
  const ProgramStats st = ctl.run(verify(p, m.config().geometry));
  EXPECT_EQ(st.instructions, 2u);
  EXPECT_EQ(st.cycles, 3u);  // 1 + 2
  EXPECT_GT(st.energy.si(), 0.0);
  EXPECT_GT(st.elapsed.si(), 0.0);
}

TEST(Controller, TraceRecordsResultsPerInstruction) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 5);
  m.poke_word(1, 0, 8, 6);
  MacroController ctl(m);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8);
  p.logic(LogicFn::Xor, RowRef::main(0), RowRef::main(1));
  std::vector<TraceEntry> trace;
  ctl.run(verify(p, m.config().geometry), TraceRecorder{p, trace});
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].result.to_u64() & 0xFF, 11u);
  EXPECT_EQ(trace[1].result.to_u64() & 0xFF, 5u ^ 6u);
  EXPECT_EQ(trace[0].cycles, 1u);
}

TEST(Controller, MultThroughProgramMatchesDirectCall) {
  ImcMacro m{MacroConfig{}};
  m.poke_mult_operand(0, 0, 8, 13);
  m.poke_mult_operand(1, 0, 8, 11);
  MacroController ctl(m);
  Program p;
  p.mult(RowRef::main(0), RowRef::main(1), 8);
  std::vector<TraceEntry> trace;
  ctl.run(verify(p, m.config().geometry), TraceRecorder{p, trace});
  EXPECT_EQ(m.peek_mult_product(trace[0].result, 0, 8), 143u);
}

TEST(Controller, InstructionToStringReadable) {
  Instruction i;
  i.op = Op::Sub;
  i.a = RowRef::main(4);
  i.b = RowRef::dummy(1);
  i.bits = 4;
  const std::string s = to_string(i);
  EXPECT_NE(s.find("SUB"), std::string::npos);
  EXPECT_NE(s.find("R4"), std::string::npos);
  EXPECT_NE(s.find("D1"), std::string::npos);
  EXPECT_NE(s.find("4b"), std::string::npos);
}

TEST(Controller, AddShiftThroughProgramWritesDest) {
  ImcMacro m{MacroConfig{}};
  m.poke_word(0, 0, 8, 3);
  m.poke_word(1, 0, 8, 4);
  MacroController ctl(m);
  Program p;
  p.add_shift(RowRef::main(0), RowRef::main(1), 8, RowRef::dummy(ImcMacro::kDummyAccum));
  ctl.run(verify(p, m.config().geometry));
  EXPECT_EQ(m.sram().row(RowRef::dummy(ImcMacro::kDummyAccum)).to_u64() & 0xFF, 14u);
}

}  // namespace
}  // namespace bpim::macro
