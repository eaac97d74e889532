// Table 2 reproduction: energy per operation for ADD / SUB / MULT at
// 2/4/8-bit precision, SUB and MULT with and without the BL separator.
// Energies are measured by running each operation on the functional macro
// as a verified program, priced by its CostModel from the calibrated
// component prices.

#include <iostream>

#include "common/table.hpp"
#include "energy/calibration.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

using namespace bpim;
using array::RowRef;
using energy::SeparatorMode;

namespace {

double measure_fj(const char* op, unsigned bits, SeparatorMode sep) {
  macro::MacroConfig cfg;
  cfg.separator = sep;
  macro::ImcMacro m(cfg);
  macro::MacroController ctl(m);
  const auto energy = [&](const macro::Program& p) {
    return in_fJ(ctl.run(macro::verify(p, m.config().geometry)).energy);
  };
  const std::string o(op);
  if (o == "ADD")
    return energy(macro::Program().add(RowRef::main(0), RowRef::main(1), bits)) /
           static_cast<double>(m.words_per_row(bits));
  if (o == "SUB")
    return energy(macro::Program().sub(RowRef::main(0), RowRef::main(1), bits)) /
           static_cast<double>(m.words_per_row(bits));
  return energy(macro::Program().mult(RowRef::main(0), RowRef::main(1), bits)) /
         static_cast<double>(m.mult_units_per_row(bits));
}

}  // namespace

int main() {
  print_banner(std::cout, "Table 2 -- energy per operation [fJ] @ 0.9 V (measured on macro)");

  TextTable t({"operation", "bits", "separator", "measured [fJ]", "paper [fJ]", "error"});
  for (const auto& target : energy::table2_targets()) {
    const double fj = measure_fj(target.op, target.bits, target.sep);
    const double err = 100.0 * (fj - target.paper_fj) / target.paper_fj;
    const char* sep_label = std::string(target.op) == "ADD"
                                ? "-"
                                : (target.sep == SeparatorMode::Enabled ? "w/ sep" : "w/o sep");
    t.add_row({target.op, std::to_string(target.bits), sep_label, TextTable::num(fj, 1),
               TextTable::num(target.paper_fj, 1), TextTable::num(err, 1) + "%"});
  }
  t.print(std::cout);

  const auto report = energy::check_table2(energy::EnergyModel{});
  std::cout << "\nClosed-form calibration: max |error| "
            << TextTable::num(100.0 * report.max_abs_rel_error, 1) << "%, mean |error| "
            << TextTable::num(100.0 * report.mean_abs_rel_error, 1)
            << "% across all 15 published entries.\n";
  return 0;
}
