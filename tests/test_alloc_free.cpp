// The macro datapath computes through fixed per-macro latches, so a verified
// program run on a warmed macro allocates nothing. This binary replaces the
// global operator new with a counting one and pins that: zero allocations
// per MacroController::run for every row op, with or without a result sink,
// and a bounded count for a whole fused MLP forward through the engine.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "app/mlp.hpp"
#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "macro/compiler.hpp"
#include "macro/imc_macro.hpp"
#include "macro/memory.hpp"
#include "macro/program.hpp"
#include "macro/verifier.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

// Out of line, so the compiler never pairs an inlined operator new with an
// inlined free() and warns about a mismatch the replacement pair rules out.
[[gnu::noinline]] void* counted_malloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Every other form of new/delete in libstdc++ forwards to these.
void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace bpim::macro {
namespace {

using array::RowRef;
using periph::LogicFn;

/// Allocations made by fn().
template <class F>
std::size_t allocations_of(F&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// A macro with random operands in rows 0..3; MULT rows 4/5 hold operands
/// in the low half of every unit at `bits`.
ImcMacro warmed_macro(unsigned bits, MacroConfig cfg = {}) {
  ImcMacro m(cfg);
  Rng rng(0xA110C);
  for (std::size_t r = 0; r < 4; ++r) {
    BitVector row(m.cols());
    row.randomize(rng);
    m.poke_row(r, row);
  }
  for (std::size_t u = 0; u < m.mult_units_per_row(bits); ++u) {
    m.poke_mult_operand(4, u, bits, rng.next_u64() & ((1ull << bits) - 1));
    m.poke_mult_operand(5, u, bits, rng.next_u64() & ((1ull << bits) - 1));
  }
  return m;
}

/// Runs `vp` once to warm every lazily created instrument, then returns the
/// allocations of a second, identical run.
std::size_t steady_run_allocations(ImcMacro& m, const VerifiedProgram& vp, bool fuse = false,
                                   const AdaptivePolicy& policy = {}) {
  MacroController ctl(m);
  (void)ctl.run(vp, {}, fuse, policy);
  return allocations_of([&] { (void)ctl.run(vp, {}, fuse, policy); });
}

TEST(AllocFree, CountingAllocatorSeesAllocations) {
  const std::size_t n = allocations_of([] { std::vector<int> v(16); (void)v; });
  EXPECT_EQ(n, 1u);
}

TEST(AllocFree, MultRunsAllocateNothing) {
  for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
    ImcMacro m = warmed_macro(bits);
    OpCompiler oc(m.config().geometry);
    const VerifiedProgram& mult = oc.mult(RowRef::main(4), RowRef::main(5), bits);
    EXPECT_EQ(steady_run_allocations(m, mult), 0u) << "plain MULT @" << bits;
    EXPECT_EQ(steady_run_allocations(m, mult, false, AdaptivePolicy{true, true}), 0u)
        << "adaptive MULT @" << bits;

    // Chained: the second MULT reuses the staged multiplicand (D1) and
    // pipelines its FF load.
    Program chain;
    chain.mult(RowRef::main(4), RowRef::main(5), bits).mult(RowRef::main(4), RowRef::main(5), bits);
    const VerifiedProgram vp = verify(std::move(chain), m.config().geometry);
    EXPECT_EQ(steady_run_allocations(m, vp, /*fuse=*/true), 0u) << "chained MULT @" << bits;
    EXPECT_EQ(steady_run_allocations(m, vp, /*fuse=*/true, AdaptivePolicy{true, true}), 0u)
        << "chained adaptive MULT @" << bits;
  }
}

TEST(AllocFree, ArithmeticRunsAllocateNothing) {
  ImcMacro m = warmed_macro(8);
  OpCompiler oc(m.config().geometry);
  const RowRef a = RowRef::main(0);
  const RowRef b = RowRef::main(1);
  const RowRef d2 = RowRef::dummy(ImcMacro::kDummyAccum);
  EXPECT_EQ(steady_run_allocations(m, oc.add(a, b, 8)), 0u) << "ADD";
  EXPECT_EQ(steady_run_allocations(m, oc.add_shift(a, b, 8, d2)), 0u) << "ADD-Shift";
  EXPECT_EQ(steady_run_allocations(m, oc.sub(a, b, 8)), 0u) << "SUB";
  Program add_wb;
  add_wb.add(a, b, 8, d2);
  EXPECT_EQ(steady_run_allocations(m, verify(std::move(add_wb), m.config().geometry)), 0u)
      << "ADD with write-back";
}

TEST(AllocFree, LogicAndSingleWlRunsAllocateNothing) {
  ImcMacro m = warmed_macro(8);
  OpCompiler oc(m.config().geometry);
  const RowRef a = RowRef::main(0);
  const RowRef b = RowRef::main(1);
  for (const LogicFn fn :
       {LogicFn::And, LogicFn::Nand, LogicFn::Or, LogicFn::Nor, LogicFn::Xor, LogicFn::Xnor})
    EXPECT_EQ(steady_run_allocations(m, oc.logic(fn, a, b)), 0u) << periph::to_string(fn);
  const RowRef d1 = RowRef::dummy(ImcMacro::kDummyOperand);
  for (const Op op : {Op::Not, Op::Copy, Op::Shift})
    EXPECT_EQ(steady_run_allocations(m, oc.unary(op, a, d1, 8)), 0u) << to_string(op);
}

TEST(AllocFree, DisturbingComputesAllocateNothing) {
  // An unprotected WL scheme flips cells on most dual-WL computes: the
  // vulnerable-column list lives in the macro, not on the heap.
  MacroConfig cfg;
  cfg.wl_scheme = WlScheme::FullSwingLong;
  cfg.inject_disturb = true;
  ImcMacro m = warmed_macro(8, cfg);
  OpCompiler oc(m.config().geometry);
  const VerifiedProgram& xor_prog = oc.logic(LogicFn::Xor, RowRef::main(0), RowRef::main(1));
  (void)steady_run_allocations(m, xor_prog);
  const std::uint64_t flips_before = m.disturb_flips();
  for (int rep = 0; rep < 8; ++rep) {
    // Re-randomise the operands uncharged so every compute has victims.
    BitVector row(m.cols());
    Rng rng(static_cast<std::uint64_t>(rep) + 1);
    row.randomize(rng);
    m.poke_row(0, row);
    EXPECT_EQ(steady_run_allocations(m, xor_prog), 0u);
  }
  EXPECT_GT(m.disturb_flips(), flips_before) << "the test must exercise the flip path";
}

TEST(AllocFree, RunWithAResultSinkAllocatesNothing) {
  ImcMacro m = warmed_macro(8);
  Program p;
  p.add(RowRef::main(0), RowRef::main(1), 8)
      .mult(RowRef::main(4), RowRef::main(5), 8)
      .logic(LogicFn::Xor, RowRef::main(2), RowRef::main(3));
  const VerifiedProgram vp = verify(std::move(p), m.config().geometry);
  MacroController ctl(m);
  // The sink reads each result row in place: the low word and the price.
  std::array<std::uint64_t, 3> low{};
  std::array<unsigned, 3> cycles{};
  const auto sink = [&](std::size_t k, const BitVector& result, const InstructionCost& cost,
                        unsigned) {
    low[k] = result.word(0);
    cycles[k] = cost.cycles;
  };
  (void)ctl.run(vp, sink);
  const std::array<std::uint64_t, 3> first = low;
  low = {};
  const std::size_t n = allocations_of([&] { (void)ctl.run(vp, sink); });
  EXPECT_EQ(n, 0u) << "a sink sees every result without a copy";
  EXPECT_EQ(low, first);
  EXPECT_EQ(low[2], m.peek_row(2).word(0) ^ m.peek_row(3).word(0)) << "XOR row";
  EXPECT_EQ(cycles, (std::array<unsigned, 3>{1, 10, 1}));
}

TEST(AllocFree, FusedMlpForwardStaysUnderItsAllocationBudget) {
  // The mlp_forward_sparse shape: 256-32-16-8 at 8/8/4 bits, weights pinned
  // and fused, adaptive policy on, ~75%-zero ReLU-sparse inputs.
  constexpr std::size_t kBudget = 150;
  const std::vector<std::size_t> sizes{256, 32, 16, 8};
  const std::vector<unsigned> bits{8, 8, 4};
  ImcMemory mem;
  engine::ExecutionEngine eng(mem, engine::EngineConfig{1});
  eng.set_adaptive_policy(AdaptivePolicy{true, true});
  Rng rng(0x5A55);
  std::vector<app::MlpLayerSpec> specs;
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    app::MlpLayerSpec spec;
    spec.bits = bits[l];
    spec.weights.assign(sizes[l + 1], std::vector<double>(sizes[l]));
    for (auto& row : spec.weights)
      for (auto& w : row) w = rng.uniform(0.0, 1.0);
    specs.push_back(std::move(spec));
  }
  app::Mlp mlp(std::move(specs), eng);
  const auto sparse_input = [&] {
    std::vector<double> x(sizes.front(), 0.0);
    for (auto& v : x)
      if (rng.uniform() >= 0.75) v = rng.uniform(0.0, 1.0);
    return x;
  };
  for (int warm = 0; warm < 2; ++warm) (void)mlp.forward(eng, sparse_input());
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<double> x = sparse_input();
    std::vector<double> y;
    const std::size_t n = allocations_of([&] { y = mlp.forward(eng, x); });
    EXPECT_LE(n, kBudget) << "forward " << rep;
    const std::vector<double> ref = mlp.forward_reference(x);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_NEAR(y[i], ref[i], 1e-9 * std::max(1.0, ref[i]));
  }
}

}  // namespace
}  // namespace bpim::macro
