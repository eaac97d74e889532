// Quickstart: one macro, every operation class, cycles and energy.
//
//   $ ./quickstart
//
// Walks the public API end to end: load words, run logic / ADD / SUB /
// MULT at 8-bit precision as verified programs, read results back through
// a result sink, inspect per-op cost.

#include <cstdio>

#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

using namespace bpim;
using array::RowRef;
using macro::ImcMacro;
using macro::Op;

int main() {
  // A single 128x128 bit-parallel IMC macro at 0.9 V, BL separator on.
  ImcMacro macro{macro::MacroConfig{}};

  // Operands of a dual-WL op live in the same columns of two rows.
  // Row 0, word 0 <- 25; row 1, word 0 <- 17 (8-bit words).
  macro.poke_word(0, 0, 8, 25);
  macro.poke_word(1, 0, 8, 17);

  std::printf("bit-parallel 6T SRAM IMC macro: %zux%zu, fmax %.2f GHz @ %.1f V\n\n",
              macro.rows(), macro.cols(), in_GHz(macro.fmax()),
              macro.config().vdd.si());

  // Every op runs as a verified one-instruction program. The controller
  // hands its result row to a sink (valid only during the call) and returns
  // the op's cycles and energy, priced by the macro's CostModel.
  macro::MacroController ctl(macro);
  std::uint64_t session_cycles = 0;
  Joule session_energy{0.0};
  std::uint64_t value = 0;
  const auto run = [&](const macro::Program& p, auto read) {
    const macro::ProgramStats st =
        ctl.run(macro::verify(p, macro.config().geometry),
                [&](std::size_t, const BitVector& row, const macro::InstructionCost&, unsigned) {
                  value = read(row);
                });
    session_cycles += st.cycles;
    session_energy += st.energy;
    return st;
  };
  const auto low_byte = [](const BitVector& row) { return row.to_u64() & 0xFF; };

  // --- logic (1 cycle) ------------------------------------------------------
  auto st = run(macro::Program().logic(periph::LogicFn::Xor, RowRef::main(0), RowRef::main(1)),
                low_byte);
  std::printf("XOR   : 25 ^ 17 = %2llu   (%u cycle, %5.1f fJ/row-op)\n",
              (unsigned long long)value, (unsigned)st.cycles, in_fJ(st.energy));

  // --- ADD (1 cycle, bit-parallel carry-select chain) -----------------------
  st = run(macro::Program().add(RowRef::main(0), RowRef::main(1), 8), low_byte);
  std::printf("ADD   : 25 + 17 = %2llu   (%u cycle, %5.1f fJ/row-op)\n",
              (unsigned long long)value, (unsigned)st.cycles, in_fJ(st.energy));

  // --- SUB (2 cycles: NOT -> dummy row, then ADD with carry-in) -------------
  st = run(macro::Program().sub(RowRef::main(0), RowRef::main(1), 8), low_byte);
  std::printf("SUB   : 25 - 17 = %2llu   (%u cycles, %5.1f fJ/row-op)\n",
              (unsigned long long)value, (unsigned)st.cycles, in_fJ(st.energy));

  // --- MULT (N+2 cycles, Fig 5's add-and-shift loop on 2N-bit units) --------
  macro.poke_mult_operand(2, 0, 8, 25);
  macro.poke_mult_operand(3, 0, 8, 17);
  st = run(macro::Program().mult(RowRef::main(2), RowRef::main(3), 8),
           [&](const BitVector& row) { return macro.peek_mult_product(row, 0, 8); });
  std::printf("MULT  : 25 * 17 = %3llu  (%u cycles, %5.1f fJ/row-op)\n",
              (unsigned long long)value, (unsigned)st.cycles, in_fJ(st.energy));

  // --- single-WL ops ---------------------------------------------------------
  st = run(macro::Program().unary(Op::Shift, RowRef::main(0), RowRef::dummy(0), 8), low_byte);
  std::printf("SHIFT : 25 << 1 = %2llu   (%u cycle)\n", (unsigned long long)value,
              (unsigned)st.cycles);

  std::printf("\nwhole session: %llu cycles, %.2f pJ, %.2f ns at fmax\n",
              (unsigned long long)session_cycles, in_pJ(session_energy),
              in_ns(macro.cycle_time()) * static_cast<double>(session_cycles));
  std::printf("(every op above also processed the other %zu words of its rows in parallel)\n",
              macro.words_per_row(8) - 1);
  return 0;
}
