// Ablation: reconfigurable bit-precision (Fig 6).
//
// The same macro runs 2/4/8/16/32-bit multiplies; unit count, cycle count
// and energy all track the configured precision. The "fixed 8-bit hardware"
// column shows what a non-reconfigurable design would pay to process
// low-precision data (the paper's hardware-utilisation argument). The
// adaptive column re-runs each precision with the operand-adaptive policy
// on the same data (dense weights, 50%-zero multipliers): the add-shift
// loop runs only to the operands' effectual depth, bit-identically.

#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

using namespace bpim;
using array::RowRef;

int main() {
  print_banner(std::cout, "Ablation -- reconfigurable precision (MULT on one 128-col macro)");

  macro::ImcMacro m{macro::MacroConfig{}};
  macro::MacroController ctl(m);
  Rng rng(0xF16);
  // One MULT of rows 0 x 1, executed as a verified program.
  const auto mult = [&](unsigned bits, const macro::AdaptivePolicy& policy) {
    const macro::Program p = macro::Program().mult(RowRef::main(0), RowRef::main(1), bits);
    return ctl.run(macro::verify(p, m.config().geometry), {}, false, policy);
  };

  // Representative operands per precision: dense nonzero multiplicands
  // against multipliers that are zero half the time (a ReLU'd stream).
  const auto poke_operands = [&](unsigned bits) {
    const std::uint64_t mask = (1ull << bits) - 1;
    for (std::size_t u = 0; u < m.mult_units_per_row(bits); ++u) {
      m.poke_mult_operand(0, u, bits, 1 | (rng.next_u64() & mask));
      m.poke_mult_operand(1, u, bits, rng.next_u64() % 2 == 0 ? 0 : rng.next_u64() & mask);
    }
  };

  // Reference cost of one multiply on fixed 8-bit hardware (sub-8-bit data
  // would be zero-padded into 8-bit units on a non-reconfigurable design).
  poke_operands(8);
  const double fj8 = in_fJ(mult(8, {}).energy) / static_cast<double>(m.mult_units_per_row(8));

  const macro::AdaptivePolicy adaptive{true, true};
  TextTable t({"precision", "units/row", "cycles", "adaptive cycles", "energy/op [fJ]",
               "throughput [ops/cycle]", "on fixed 8b HW [fJ/op]", "energy saved"});
  for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
    poke_operands(bits);
    const macro::ProgramStats dense = mult(bits, {});
    const std::uint64_t dense_cycles = dense.cycles;
    const double units = static_cast<double>(m.mult_units_per_row(bits));
    const double fj = in_fJ(dense.energy) / units;
    const double tput = units / static_cast<double>(dense_cycles);
    const std::uint64_t adaptive_cycles = mult(bits, adaptive).cycles;
    const bool sub8 = bits < 8;
    t.add_row({std::to_string(bits) + "b", TextTable::num(units, 0),
               std::to_string(dense_cycles), std::to_string(adaptive_cycles),
               TextTable::num(fj, 1), TextTable::num(tput, 2),
               sub8 ? TextTable::num(fj8, 1) : std::string("-"),
               sub8 ? TextTable::num(100.0 * (1.0 - fj / fj8), 1) + "%" : std::string("-")});
  }
  t.print(std::cout);

  std::cout << "\n(The fixed-8b column assumes 2/4-bit operands padded into 8-bit units --\n"
               "the wasted-hardware case the paper's reconfigurability avoids. The\n"
               "adaptive column is the same multiply under the narrowing/zero-skip\n"
               "policy on half-sparse multipliers: fewer cycles, identical products.)\n";
  return 0;
}
