// Fig 9 reproduction: cycles per operation vs BL size (number of bit lines
// = row width of one compute tile) for 8-bit ADD / SUB / MULT, conventional
// bit-serial baseline [2] vs the proposed bit-parallel architecture.
//
// Cycle counts are measured by *running both functional simulators* on a
// vector workload, not from closed forms. The baseline's parallelism is
// pinned to its fixed 64 column-ALU organisation (256 columns, 4:1), so its
// cycles/op is flat in BL size; the proposed macro retires one full row of
// words per Table-1 latency, so its cycles/op falls ~1/B.
//
// Paper claims reproduced: flat baseline curves, ~1/B proposed curves, the
// MULT crossover near BL size 128, and a widening advantage with BL size.
// The paper's printed ratio labels are tabulated alongside; the exact axis
// semantics of Fig 9 are under-specified (see DESIGN.md / EXPERIMENTS.md).

#include <iostream>
#include <vector>

#include "baseline/bitserial.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

using namespace bpim;
using array::RowRef;

namespace {

struct OpResult {
  double conv_cpo;
  double prop_cpo;
};

enum class WhichOp { Add, Sub, Mult };

double run_conv(WhichOp op, unsigned bits, std::size_t batches) {
  baseline::BitSerialMacro m;
  Rng rng(101);
  const std::size_t n = m.alus();
  std::uint64_t ops = 0;
  for (std::size_t k = 0; k < batches; ++k) {
    for (std::size_t e = 0; e < n; ++e) {
      m.poke_element(e, 0, bits, rng.next_u64() & 0xFF);
      m.poke_element(e, bits, bits, rng.next_u64() & 0xFF);
    }
    switch (op) {
      case WhichOp::Add: m.add(0, bits, 2 * bits, bits, n); break;
      case WhichOp::Sub: m.sub(0, bits, 2 * bits, bits, n); break;
      case WhichOp::Mult: m.mult(0, bits, 2 * bits, bits, n); break;
    }
    ops += n;
  }
  return static_cast<double>(m.total_cycles()) / static_cast<double>(ops);
}

double run_prop(WhichOp op, unsigned bits, std::size_t bl_size, std::size_t batches) {
  macro::MacroConfig cfg;
  cfg.geometry.cols = bl_size;
  macro::ImcMacro m(cfg);
  macro::MacroController ctl(m);
  Rng rng(202);
  std::uint64_t ops = 0;
  std::uint64_t cycles = 0;
  for (std::size_t k = 0; k < batches; ++k) {
    BitVector a(bl_size), b(bl_size);
    a.randomize(rng);
    b.randomize(rng);
    m.poke_row(2 * k, a);
    m.poke_row(2 * k + 1, b);
    const auto ra = RowRef::main(2 * k), rb = RowRef::main(2 * k + 1);
    macro::Program p;
    switch (op) {
      case WhichOp::Add:
        p.add(ra, rb, bits);
        ops += m.words_per_row(bits);
        break;
      case WhichOp::Sub:
        p.sub(ra, rb, bits);
        ops += m.words_per_row(bits);
        break;
      case WhichOp::Mult:
        p.mult(ra, rb, bits);
        ops += m.mult_units_per_row(bits);
        break;
    }
    cycles += ctl.run(macro::verify(std::move(p), m.config().geometry)).cycles;
  }
  return static_cast<double>(cycles) / static_cast<double>(ops);
}

void run_panel(const char* name, WhichOp op, const std::vector<double>& paper_ratios) {
  print_banner(std::cout, std::string("Fig 9 -- ") + name +
                              " cycles/op vs BL size (8-bit, measured by simulation)");
  TextTable t({"BL size", "conv bit-serial [cyc/op]", "proposed [cyc/op]", "ratio",
               "paper ratio label"});
  const double conv = run_conv(op, 8, 8);
  std::size_t idx = 0;
  for (const std::size_t bl : {128u, 256u, 512u, 1024u}) {
    const double prop = run_prop(op, 8, bl, 8);
    t.add_row({std::to_string(bl), TextTable::num(conv, 4), TextTable::num(prop, 4),
               TextTable::ratio(prop / conv, 2), TextTable::ratio(paper_ratios[idx++], 2)});
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  run_panel("ADD", WhichOp::Add, {0.38, 0.27, 0.17, 0.16});
  run_panel("SUB", WhichOp::Sub, {0.23, 0.18, 0.13, 0.08});
  run_panel("MULT", WhichOp::Mult, {1.19, 0.68, 0.36, 0.19});

  std::cout << "\nShape checks vs the paper: baseline flat in BL size; proposed ~1/B;\n"
               "MULT crossover (ratio ~1) near BL size 128; advantage widens with BL size.\n"
               "Absolute ratio labels differ where Fig 9's axis semantics are ambiguous --\n"
               "see the per-experiment notes in EXPERIMENTS.md.\n";
  return 0;
}
