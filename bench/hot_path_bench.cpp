// Hot-path benchmark: ns/op of the word-parallel (SWAR) functional datapath
// against the seed's per-bit reference (baseline/naive_datapath), plus
// end-to-end MLP forward throughput through the ExecutionEngine.
//
// Kernels, at 4/8/16-bit precision on one 128x256 macro:
//   fa_add     FaLogics::add on a row-wide readout   vs naive per-bit ripple
//   add_rows   full macro ADD op (sense + FA) -- no per-bit reference;
//              the pre-PR cost is fa_add's reference plus the same overheads
//   mult       ImcMacro::mult_rows (N+2-cycle sequence; closed-form product
//              with disturb off) vs the naive per-bit add-and-shift datapath
//              (reference excludes array/energy traffic, so the reported
//              speedup is conservative)
//   mult_program  the same MULT dispatched the way the engine now issues
//              every op: cached, already-verified OpCompiler program run by
//              a MacroController. Its reference is the direct mult_rows
//              call on the same operands, timed in alternation with it, so
//              the reported ratio IS the unified-dispatch overhead (gated at
//              <= kMaxDispatchOverhead at 8-bit).
//   mult_adaptive_dense  mult_rows with the adaptive policy enabled on
//              operands built so nothing can narrow or skip: the planner
//              scans and saves zero cycles, so ns/ref-ns is the pure host
//              cost of the operand scan (must stay within 5% at 8-bit).
//              Timed in alternation with the plain call, like mult_program.
//   logic      ImcMacro::logic_rows (word-parallel before and after this PR;
//              reported for the trajectory, no reference)
//
// Results land in BENCH_hotpath.json (schema bpim.hotpath.v1) so future PRs
// have a perf trajectory; see README "Performance".
//
// Usage: hot_path_bench [--smoke] [--out <path>]
//   --smoke   ~10x fewer iterations and 250 us instead of 2 ms per side of
//             a paired rep (CI-sized); same JSON shape
//   --out     output path (default BENCH_hotpath.json)

#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "app/mlp.hpp"
#include "common/json_writer.hpp"
#include "baseline/naive_datapath.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "engine/execution_engine.hpp"
#include "macro/compiler.hpp"
#include "macro/imc_macro.hpp"
#include "macro/program.hpp"

using namespace bpim;
using array::BlReadout;
using array::RowRef;

namespace {

constexpr std::size_t kCols = 256;

/// Bound on the 8-bit mult_program / direct mult_rows host-time ratio, both
/// timed in alternation in this process. The program path adds the
/// controller's geometry check and per-instruction pricing on top of the
/// direct call.
constexpr double kMaxDispatchOverhead = 1.4;

/// Best-of-`reps` average ns per call of fn() over `iters` calls.
template <class F>
double time_ns(std::size_t iters, F&& fn, int reps = 3) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                              static_cast<double>(iters));
  }
  return best;
}

struct KernelResult {
  std::string name;
  unsigned bits = 0;
  double ns_per_op = 0.0;
  double ref_ns_per_op = 0.0;  ///< 0 when the kernel has no per-bit reference
  /// Median over reps of (ns/ref ns) timed back to back in the same rep; 0
  /// unless the kernel was timed with time_pair. The gates read this.
  double paired_ratio = 0.0;
  [[nodiscard]] double speedup() const { return ref_ns_per_op > 0 ? ref_ns_per_op / ns_per_op : 0; }
};

/// Calls of fn() that take at least `budget_ns` in one timed run, found by
/// doubling from one call.
template <class F>
std::size_t calls_for_budget(double budget_ns, F&& fn) {
  std::size_t calls = 1;
  while (time_ns(calls, fn, 1) * static_cast<double>(calls) < budget_ns) calls *= 2;
  return calls;
}

/// f() against its reference g(), timed in alternation so host drift hits
/// both alike: best-of-15 ns per call of each, plus the median of the 15
/// per-rep ratios f/g. Each rep times as many calls of each as g() needs
/// to fill `budget_ns`, so a rep averages over the same host time whatever
/// a call costs: a short timer tick or preemption moves only its own
/// ratio, which the median discards; two independent best-of minima can
/// each catch a different lucky rep.
template <class F, class G>
void time_pair(double budget_ns, F&& f, G&& g, KernelResult& out) {
  constexpr int kReps = 15;
  const std::size_t calls = calls_for_budget(budget_ns, g);
  std::array<double, kReps> ratios{};
  out.ns_per_op = out.ref_ns_per_op = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const double fn = time_ns(calls, f, 1);
    const double gn = time_ns(calls, g, 1);
    out.ns_per_op = std::min(out.ns_per_op, fn);
    out.ref_ns_per_op = std::min(out.ref_ns_per_op, gn);
    ratios[static_cast<std::size_t>(rep)] = fn / gn;
  }
  std::nth_element(ratios.begin(), ratios.begin() + kReps / 2, ratios.end());
  out.paired_ratio = ratios[kReps / 2];
}

macro::MacroConfig bench_macro_cfg() {
  macro::MacroConfig cfg;
  cfg.geometry.cols = kCols;
  return cfg;
}

std::vector<KernelResult> bench_kernels(std::size_t iters, double pair_budget_ns) {
  std::vector<KernelResult> out;
  Rng rng(0xBE9C);

  for (const unsigned bits : {4u, 8u, 16u}) {
    macro::ImcMacro m{bench_macro_cfg()};
    BitVector a(kCols), b(kCols);
    a.randomize(rng);
    b.randomize(rng);
    m.poke_row(0, a);
    m.poke_row(1, b);
    const BlReadout readout{a & b, ~(a | b)};

    KernelResult fa{"fa_add", bits, 0, 0};
    fa.ns_per_op =
        time_ns(iters, [&] { (void)periph::FaLogics::add(readout, bits, false); });
    fa.ref_ns_per_op =
        time_ns(iters / 4 + 1, [&] { (void)baseline::naive_add(readout, bits, false); });
    out.push_back(fa);

    KernelResult add{"add_rows", bits, 0, 0};
    add.ns_per_op =
        time_ns(iters, [&] { (void)m.add_rows(RowRef::main(0), RowRef::main(1), bits); });
    out.push_back(add);

    // MULT operands live in the low half of each 2N-bit unit.
    const std::size_t units = m.mult_units_per_row(bits);
    for (std::size_t u = 0; u < units; ++u) {
      m.poke_mult_operand(0, u, bits, rng.next_u64() & ((1ull << bits) - 1));
      m.poke_mult_operand(1, u, bits, rng.next_u64() & ((1ull << bits) - 1));
    }
    const BitVector row_a = m.peek_row(0);
    const BitVector row_b = m.peek_row(1);
    KernelResult mult{"mult", bits, 0, 0};
    mult.ns_per_op = time_ns(iters / 4 + 1,
                             [&] { (void)m.mult_rows(RowRef::main(0), RowRef::main(1), bits); });
    mult.ref_ns_per_op = time_ns(iters / 16 + 1,
                                 [&] { (void)baseline::naive_mult_datapath(row_a, row_b, bits); });
    out.push_back(mult);

    // Adaptive planning on operands with every multiplier MSB set: the scan
    // finds nothing to narrow or skip (modeled cycles identical to plain
    // mult by construction), so the ratio to the plain call on the same
    // data is the planner's host overhead.
    const std::uint64_t top = 1ull << (bits - 1);
    for (std::size_t u = 0; u < units; ++u) {
      m.poke_mult_operand(0, u, bits, top | (rng.next_u64() & (top - 1)));
      m.poke_mult_operand(1, u, bits, top | (rng.next_u64() & (top - 1)));
    }
    const macro::AdaptivePolicy adaptive{true, true};
    KernelResult ma{"mult_adaptive_dense", bits};
    time_pair(
        pair_budget_ns,
        [&] { (void)m.mult_rows(RowRef::main(0), RowRef::main(1), bits, adaptive); },
        [&] { (void)m.mult_rows(RowRef::main(0), RowRef::main(1), bits); }, ma);
    out.push_back(ma);

    // The unified execution model's dispatch cost: the same MULT through a
    // cached single-op program and a MacroController (the engine's hot
    // path). Reference = the direct call, timed in alternation with it, so
    // ns/ref-ns is the dispatch overhead factor (close to 1.0 is good).
    macro::OpCompiler oc(m.config().geometry);
    const macro::VerifiedProgram& prog = oc.mult(RowRef::main(0), RowRef::main(1), bits);
    macro::MacroController ctl(m);
    KernelResult mp{"mult_program", bits};
    time_pair(
        pair_budget_ns, [&] { (void)ctl.run(prog); },
        [&] { (void)m.mult_rows(RowRef::main(0), RowRef::main(1), bits); }, mp);
    out.push_back(mp);
  }

  {
    macro::ImcMacro m{bench_macro_cfg()};
    BitVector a(kCols), b(kCols);
    a.randomize(rng);
    b.randomize(rng);
    m.poke_row(0, a);
    m.poke_row(1, b);
    KernelResult logic{"logic", 0, 0, 0};
    logic.ns_per_op = time_ns(iters, [&] {
      (void)m.logic_rows(periph::LogicFn::Xor, RowRef::main(0), RowRef::main(1));
    });
    out.push_back(logic);
  }
  return out;
}

struct MlpResult {
  std::vector<std::size_t> sizes;   ///< in, hidden..., out
  std::vector<unsigned> bits;       ///< per layer
  double ns_per_forward = 0.0;
  double forwards_per_sec = 0.0;
  double macs_per_sec = 0.0;
};

MlpResult bench_mlp(std::size_t forwards) {
  Rng rng(0x3170);
  MlpResult r;
  r.sizes = {64, 48, 32, 10};
  r.bits = {8, 8, 4};
  std::vector<app::MlpLayerSpec> specs;
  std::size_t macs = 0;
  for (std::size_t l = 0; l + 1 < r.sizes.size(); ++l) {
    app::MlpLayerSpec spec;
    spec.bits = r.bits[l];
    spec.weights.assign(r.sizes[l + 1], std::vector<double>(r.sizes[l]));
    for (auto& row : spec.weights)
      for (auto& w : row) w = rng.uniform();
    macs += r.sizes[l] * r.sizes[l + 1];
    specs.push_back(std::move(spec));
  }
  app::Mlp mlp(std::move(specs));

  macro::MemoryConfig mcfg;
  mcfg.banks = 1;
  mcfg.macros_per_bank = 8;
  macro::ImcMemory mem(mcfg);
  engine::ExecutionEngine eng(mem, engine::EngineConfig{1});  // single-thread: the SWAR win alone

  std::vector<double> x(r.sizes.front());
  for (auto& v : x) v = rng.uniform();
  r.ns_per_forward = time_ns(forwards, [&] { (void)mlp.forward(eng, x); });
  r.forwards_per_sec = 1e9 / r.ns_per_forward;
  r.macs_per_sec = r.forwards_per_sec * static_cast<double>(macs);
  return r;
}

void write_json(const std::string& path, bool smoke, const std::vector<KernelResult>& kernels,
                const MlpResult& mlp) {
  JsonWriter w(path);
  w.begin_object();
  w.field("schema", "bpim.hotpath.v1");
  w.field("mode", smoke ? "smoke" : "full");
  w.field("cols", kCols);
  w.key("kernels");
  w.begin_array();
  for (const auto& k : kernels) {
    w.begin_object();
    w.field("name", k.name);
    w.field("bits", k.bits);
    w.field("ns_per_op", k.ns_per_op);
    if (k.ref_ns_per_op > 0) {
      w.field("ref_ns_per_op", k.ref_ns_per_op);
      w.field("speedup", k.speedup());
    }
    if (k.paired_ratio > 0) w.field("paired_ratio", k.paired_ratio);
    w.end_object();
  }
  w.end_array();
  w.key("mlp");
  w.begin_object();
  w.field("sizes", mlp.sizes);
  w.field("bits", mlp.bits);
  w.field("ns_per_forward", mlp.ns_per_forward);
  w.field("forwards_per_sec", mlp.forwards_per_sec);
  w.field("macs_per_sec", mlp.macs_per_sec);
  w.end_object();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: hot_path_bench [--smoke] [--out <path>]\n";
      return 2;
    }
  }
  const std::size_t iters = smoke ? 200 : 2000;
  const std::size_t forwards = smoke ? 3 : 20;
  // Host time per side of one paired rep (see time_pair).
  const double pair_budget_ns = smoke ? 250e3 : 2e6;

#ifndef NDEBUG
  std::cout << "NOTE: assertions enabled (non-Release build) -- numbers are not "
               "representative; use -DCMAKE_BUILD_TYPE=Release.\n";
#endif

  const auto kernels = bench_kernels(iters, pair_budget_ns);
  const auto mlp = bench_mlp(forwards);

  print_banner(std::cout, "Hot-path kernels (one 128x" + std::to_string(kCols) +
                              " macro, single thread)");
  TextTable table({"kernel", "bits", "ns/op", "naive ns/op", "speedup"});
  for (const auto& k : kernels) {
    table.add_row({k.name, k.bits ? std::to_string(k.bits) : "-", TextTable::num(k.ns_per_op, 1),
                   k.ref_ns_per_op > 0 ? TextTable::num(k.ref_ns_per_op, 1) : "-",
                   k.ref_ns_per_op > 0 ? TextTable::ratio(k.speedup()) : "-"});
  }
  table.print(std::cout);

  for (const auto& k : kernels)
    if (k.name == "mult_program" && k.bits == 8)
      std::cout << "  unified dispatch (cached verified program + controller) costs "
                << TextTable::num(k.paired_ratio, 2)
                << "x the direct 8-bit mult_rows call per op\n";

  print_banner(std::cout, "End-to-end MLP forward (ExecutionEngine, 1 thread, 8 macros)");
  std::cout << "  layers 64-48-32-10 @ 8/8/4 bit: " << TextTable::num(mlp.ns_per_forward / 1e3, 1)
            << " us/forward, " << TextTable::num(mlp.forwards_per_sec, 1) << " forwards/s, "
            << TextTable::num(mlp.macs_per_sec / 1e6, 2) << " M MAC/s\n";

  write_json(out_path, smoke, kernels, mlp);
  std::cout << "\nwrote " << out_path << "\n";

  // Acceptance bars: >=5x on the 8-bit MULT path, the adaptive planner's
  // dense-operand host overhead within 5% at 8-bit, and the unified
  // dispatch overhead within kMaxDispatchOverhead at 8-bit. The two
  // overhead bars read the paired-ratio median.
  for (const auto& k : kernels) {
    if (k.name == "mult" && k.bits == 8 && k.speedup() < 5.0) {
      std::cerr << "WARNING: 8-bit mult speedup " << k.speedup() << " is below the 5x target\n";
      return 1;
    }
    if (k.name == "mult_adaptive_dense" && k.bits == 8 && k.paired_ratio > 1.05) {
      std::cerr << "WARNING: adaptive planning costs " << TextTable::num(k.paired_ratio, 3)
                << "x the plain 8-bit mult on dense operands (>1.05x budget)\n";
      return 1;
    }
    if (k.name == "mult_program" && k.bits == 8 && k.paired_ratio > kMaxDispatchOverhead) {
      std::cerr << "WARNING: unified dispatch costs "
                << TextTable::num(k.paired_ratio, 3)
                << "x the direct 8-bit mult_rows call (>" << kMaxDispatchOverhead
                << "x budget)\n";
      return 1;
    }
  }
  return 0;
}
