// Ablation: the BL separator.
//
// The separator cuts the tall main-array BL away from the dummy segment
// during write-back and iterative MULT cycles. This study quantifies both
// effects the paper attributes to it: write-back energy (Table 2's w/ vs
// w/o columns) and write-back delay / fmax (Fig 8's 51 ps component).

#include <iostream>

#include "common/table.hpp"
#include "energy/energy_model.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"
#include "timing/freq_model.hpp"

using namespace bpim;
using namespace bpim::literals;
using array::RowRef;
using energy::SeparatorMode;

int main() {
  print_banner(std::cout, "Ablation -- BL separator: energy effect (measured on macro)");

  TextTable t({"operation", "bits", "w/ separator [fJ]", "w/o separator [fJ]", "saving"});
  for (const unsigned bits : {2u, 4u, 8u, 16u}) {
    for (const char* op : {"SUB", "MULT"}) {
      double fj[2];
      int i = 0;
      for (const auto sep : {SeparatorMode::Enabled, SeparatorMode::Disabled}) {
        macro::MacroConfig cfg;
        cfg.separator = sep;
        macro::ImcMacro m(cfg);
        macro::MacroController ctl(m);
        const auto energy = [&](const macro::Program& p) {
          return in_fJ(ctl.run(macro::verify(p, m.config().geometry)).energy);
        };
        if (std::string(op) == "SUB") {
          fj[i++] = energy(macro::Program().sub(RowRef::main(0), RowRef::main(1), bits)) /
                    static_cast<double>(m.words_per_row(bits));
        } else {
          fj[i++] = energy(macro::Program().mult(RowRef::main(0), RowRef::main(1), bits)) /
                    static_cast<double>(m.mult_units_per_row(bits));
        }
      }
      t.add_row({op, std::to_string(bits), TextTable::num(fj[0], 1), TextTable::num(fj[1], 1),
                 TextTable::num(100.0 * (fj[1] - fj[0]) / fj[1], 1) + "%"});
    }
  }
  t.print(std::cout);

  print_banner(std::cout, "Ablation -- BL separator: timing effect");
  const timing::FreqModel fm;
  TextTable ft({"VDD [V]", "WB w/ sep [ps]", "WB w/o sep [ps]", "fmax w/ sep [GHz]",
                "fmax w/o sep [GHz]", "fmax loss"});
  for (double v = 0.6; v <= 1.1 + 1e-9; v += 0.1) {
    const Volt vdd(v);
    const auto with = fm.breakdown(vdd, true);
    const auto without = fm.breakdown(vdd, false);
    const double f1 = in_GHz(fm.fmax(vdd, true));
    const double f0 = in_GHz(fm.fmax(vdd, false));
    ft.add_row({TextTable::num(v, 1), TextTable::num(in_ps(with.write_back), 0),
                TextTable::num(in_ps(without.write_back), 0), TextTable::num(f1, 3),
                TextTable::num(f0, 3), TextTable::num(100.0 * (f1 - f0) / f1, 1) + "%"});
  }
  ft.print(std::cout);

  std::cout << "\nPaper: Table 2 shows ~10% (SUB) and ~19% (MULT 8b) energy saved by the\n"
               "separator; Fig 8 credits it with the 51 ps write-back component.\n";
  return 0;
}
