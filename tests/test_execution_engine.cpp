// ExecutionEngine: sharded parallel dispatch must be bit-identical to the
// serial walk -- values AND RunStats -- at every thread count, including
// odd-sized vectors whose last chunk only partially fills a row pair.

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "app/vector_engine.hpp"
#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "macro/cost_model.hpp"
#include "macro/compiler.hpp"
#include "macro/program.hpp"
#include "reference_ledger.hpp"

namespace bpim::engine {
namespace {

macro::MemoryConfig tiny_memory() {
  macro::MemoryConfig cfg;
  cfg.banks = 2;
  cfg.macros_per_bank = 2;
  return cfg;
}

std::vector<std::uint64_t> random_vec(std::size_t n, unsigned bits, std::uint64_t seed) {
  bpim::Rng rng(seed);
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_u64() & mask;
  return v;
}

/// Run `op` on a fresh memory with `threads` total workers.
OpResult run_fresh(const VecOp& op, std::size_t threads) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{threads});
  return eng.run(op);
}

void expect_identical(const OpResult& want, const OpResult& got, const char* what) {
  EXPECT_EQ(want.values, got.values) << what;
  EXPECT_EQ(want.stats.elements, got.stats.elements) << what;
  EXPECT_EQ(want.stats.elapsed_cycles, got.stats.elapsed_cycles) << what;
  // Bit-identical doubles, not approximately equal: the merge order is fixed.
  EXPECT_EQ(want.stats.energy.si(), got.stats.energy.si()) << what;
  EXPECT_EQ(want.stats.elapsed_time.si(), got.stats.elapsed_time.si()) << what;
}

class EngineDeterminismP : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineDeterminismP, AllOpsMatchSerialExactly) {
  const std::size_t threads = GetParam();
  const unsigned bits = 8;
  // Sizes chosen to hit: sub-chunk, partial last chunk, exact layer,
  // multi-layer with a partial tail.
  const std::vector<std::size_t> sizes = {1, 7, 64, 300, 1023};
  const std::vector<VecOp> protos = {
      {OpKind::Add, bits, periph::LogicFn::And, {}, {}},
      {OpKind::Sub, bits, periph::LogicFn::And, {}, {}},
      {OpKind::Mult, bits, periph::LogicFn::And, {}, {}},
      {OpKind::AddShift, bits, periph::LogicFn::And, {}, {}},
      {OpKind::Logic, bits, periph::LogicFn::Xor, {}, {}},
  };
  for (const std::size_t n : sizes) {
    const auto a = random_vec(n, bits, 0xA0 + n);
    const auto b = random_vec(n, bits, 0xB0 + n);
    for (VecOp op : protos) {
      op.a = a;
      op.b = b;
      const OpResult serial = run_fresh(op, 1);
      const OpResult parallel = run_fresh(op, threads);
      expect_identical(serial, parallel,
                       (std::string(to_string(op.kind)) + " n=" + std::to_string(n)).c_str());
    }
    // NOT is unary: side b stays empty.
    const VecOp not_op{OpKind::Not, bits, periph::LogicFn::And, a, {}};
    expect_identical(run_fresh(not_op, 1), run_fresh(not_op, threads),
                     ("NOT n=" + std::to_string(n)).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, EngineDeterminismP, ::testing::Values(2u, 8u));

TEST(ExecutionEngine, MatchesScalarReference) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{4});
  const unsigned bits = 8;
  const auto a = random_vec(333, bits, 1);
  const auto b = random_vec(333, bits, 2);

  VecOp op{OpKind::Add, bits, periph::LogicFn::And, a, b};
  auto add = eng.run(op);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(add.values[i], (a[i] + b[i]) & 0xFF);

  op.kind = OpKind::Mult;
  auto mul = eng.run(op);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(mul.values[i], a[i] * b[i]);

  // ADD-Shift: the sum, shifted up one position in-field (bit 0 zeroed).
  op.kind = OpKind::AddShift;
  auto as = eng.run(op);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(as.values[i], ((a[i] + b[i]) << 1) & 0xFF);

  const VecOp un{OpKind::Not, bits, periph::LogicFn::And, a, {}};
  auto nt = eng.run(un);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(nt.values[i], ~a[i] & 0xFF);
}

TEST(ExecutionEngine, BatchMatchesIndividualRuns) {
  const unsigned bits = 8;
  const auto a0 = random_vec(100, bits, 3);
  const auto b0 = random_vec(100, bits, 4);
  const auto a1 = random_vec(37, bits, 5);
  const auto b1 = random_vec(37, bits, 6);
  std::vector<VecOp> ops = {
      {OpKind::Mult, bits, periph::LogicFn::And, a0, b0},
      {OpKind::Add, bits, periph::LogicFn::And, a1, b1},
  };

  macro::ImcMemory mem_batch(tiny_memory());
  ExecutionEngine eng_batch(mem_batch, EngineConfig{4});
  const auto results = eng_batch.run_batch(ops);
  ASSERT_EQ(results.size(), 2u);

  for (std::size_t k = 0; k < ops.size(); ++k) {
    const OpResult one = run_fresh(ops[k], 1);
    expect_identical(one, results[k], "batch op");
  }

  const BatchStats& bs = eng_batch.last_batch();
  EXPECT_EQ(bs.ops, 2u);
  EXPECT_EQ(bs.elements, 137u);
  EXPECT_EQ(bs.compute_cycles,
            results[0].stats.elapsed_cycles + results[1].stats.elapsed_cycles);
  EXPECT_EQ(bs.serial_cycles, bs.load_cycles + bs.compute_cycles);
  // Double buffering can only help, and never beats pure compute + first load.
  EXPECT_LE(bs.pipelined_cycles, bs.serial_cycles);
  EXPECT_GE(bs.pipelined_cycles, bs.compute_cycles);
  EXPECT_EQ(bs.energy.si(),
            (results[0].stats.energy + results[1].stats.energy).si());
}

TEST(ExecutionEngine, BatchOverlapHidesLoadBehindCompute) {
  // MULT at 8 bits runs N+2 = 10 cycles per layer vs 2 load cycles, so in a
  // long same-shape batch every load after the first hides completely.
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  const unsigned bits = 8;
  const auto a = random_vec(32, bits, 7);  // one layer (4 macros x 8 units)
  const auto b = random_vec(32, bits, 8);
  std::vector<VecOp> ops(5, VecOp{OpKind::Mult, bits, periph::LogicFn::And, a, b});
  (void)eng.run_batch(ops);
  const BatchStats& bs = eng.last_batch();
  EXPECT_EQ(bs.load_cycles, 5u * 2u);
  EXPECT_EQ(bs.pipelined_cycles, 2u + bs.compute_cycles);  // only load 0 exposed
  EXPECT_GT(bs.overlap_speedup(), 1.0);
}

TEST(ExecutionEngine, NoOverlapCreditAtFullCapacity) {
  // Two full-capacity ops (64 layers each on 64 row pairs) cannot be
  // co-resident, so the batch model must not hide the second load.
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  const unsigned bits = 8;
  const std::size_t full = eng.mult_units_per_row(bits) * mem.macro_count() * 64;
  const auto a = random_vec(full, bits, 16);
  const auto b = random_vec(full, bits, 17);
  std::vector<VecOp> ops(2, VecOp{OpKind::Mult, bits, periph::LogicFn::And, a, b});
  (void)eng.run_batch(ops);
  EXPECT_EQ(eng.last_batch().pipelined_cycles, eng.last_batch().serial_cycles);

  // Half-capacity ops can ping-pong, so overlap is credited again.
  const auto ha = random_vec(full / 2, bits, 18);
  const auto hb = random_vec(full / 2, bits, 19);
  std::vector<VecOp> half_ops(2, VecOp{OpKind::Mult, bits, periph::LogicFn::And, ha, hb});
  (void)eng.run_batch(half_ops);
  EXPECT_LT(eng.last_batch().pipelined_cycles, eng.last_batch().serial_cycles);
}

TEST(ExecutionEngine, EmptyBatchIsANoOp) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  const auto results = eng.run_batch({});
  EXPECT_TRUE(results.empty());
  const BatchStats& bs = eng.last_batch();
  EXPECT_EQ(bs.ops, 0u);
  EXPECT_EQ(bs.elements, 0u);
  EXPECT_EQ(bs.load_cycles, 0u);
  EXPECT_EQ(bs.compute_cycles, 0u);
  EXPECT_EQ(bs.serial_cycles, 0u);
  EXPECT_EQ(bs.pipelined_cycles, 0u);
  EXPECT_EQ(bs.energy.si(), 0.0);
  EXPECT_EQ(bs.elapsed_time.si(), 0.0);
  // Nothing was compiled, let alone dispatched.
  EXPECT_EQ(eng.op_program_cache_stats().compiled, 0u);
}

TEST(ExecutionEngine, LayersForAndCapacityHooks) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  EXPECT_EQ(eng.row_pair_capacity(), 64u);  // 128 rows -> 64 ping-pong pairs
  const auto a = random_vec(65, 8, 20);     // 16 words/row x 4 macros = 64/layer
  VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, a};
  EXPECT_EQ(eng.layers_for(op), 2u);
  op.kind = OpKind::Mult;  // 8 units/row x 4 macros = 32/layer
  EXPECT_EQ(eng.layers_for(op), 3u);
}

TEST(ExecutionEngine, EmptyAndErrorCases) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{4});
  const std::vector<std::uint64_t> empty;
  VecOp op{OpKind::Add, 8, periph::LogicFn::And, empty, empty};
  const auto res = eng.run(op);
  EXPECT_TRUE(res.values.empty());
  EXPECT_EQ(res.stats.elapsed_cycles, 0u);

  const auto a = random_vec(4, 8, 9);
  const auto b = random_vec(3, 8, 10);
  op.a = a;
  op.b = b;
  EXPECT_THROW((void)eng.run(op), std::invalid_argument);  // propagates off the pool

  op.b = a;
  op.bits = 3;
  EXPECT_THROW((void)eng.run(op), std::invalid_argument);
}

TEST(ExecutionEngine, VectorEngineRoutesThroughSharedEngine) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  app::VectorEngine ve(eng, 8);
  EXPECT_EQ(&ve.engine(), &eng);

  const auto a = random_vec(200, 8, 11);
  const auto b = random_vec(200, 8, 12);
  const auto c = ve.add(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(c[i], (a[i] + b[i]) & 0xFF);

  // Serial seed semantics preserved: 200 adds on 64 words/layer -> 4 layers.
  EXPECT_EQ(ve.last_run().elapsed_cycles, 4u);
  EXPECT_EQ(ve.last_run().elements, 200u);
}

TEST(ExecutionEngine, VectorEngineBatchAggregatesLastRun) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  app::VectorEngine ve(eng, 8);
  const auto a = random_vec(40, 8, 14);
  const auto b = random_vec(40, 8, 15);
  std::vector<std::pair<std::span<const std::uint64_t>, std::span<const std::uint64_t>>> pairs =
      {{a, b}, {a, b}, {a, b}};
  const auto results = ve.mult_batch(pairs);
  ASSERT_EQ(results.size(), 3u);
  // last_run() is the sum over the batch, as a loop over ops would report.
  std::uint64_t cycles = 0;
  Joule energy{0.0};
  for (const auto& r : results) {
    cycles += r.stats.elapsed_cycles;
    energy += r.stats.energy;
  }
  EXPECT_EQ(ve.last_run().elements, 120u);
  EXPECT_EQ(ve.last_run().elapsed_cycles, cycles);
  EXPECT_EQ(ve.last_run().energy.si(), energy.si());
}

/// The controller's MULT plan resolved on the host from the unit values of
/// the multiplicand (a) and multiplier (b) rows: a zero multiplicand unit
/// drops its multiplier bits, and the widest remaining multiplier is the
/// effectual depth. Units past the spans are zero (fresh rows).
macro::MultPlan host_plan(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
                          unsigned bits, const macro::AdaptivePolicy& policy, bool d1_staged,
                          bool pipelined) {
  macro::MultPlan plan = macro::MultPlan::full(bits, d1_staged, pipelined);
  if (!policy.enabled()) return plan;
  unsigned eff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != 0) eff = std::max(eff, static_cast<unsigned>(std::bit_width(b[i])));
  if (policy.narrow_precision) plan.depth = eff;
  if (policy.skip_zero && eff == 0) {
    plan.skip = true;
    plan.depth = 0;
  }
  return plan;
}

/// Operand units of instruction k of a program (its MULTs only).
using OperandsOf = std::function<std::pair<std::span<const std::uint64_t>,
                                           std::span<const std::uint64_t>>(std::size_t k)>;

/// One macro's program replayed through the reference ledger, each MULT
/// resolved as MacroController::run resolves it: chain discounts from the
/// staged-D1 tracking, the adaptive plan from the operand units.
struct Replay {
  macro::ReferenceLedger ledger;
  std::vector<macro::InstructionCost> costs;
  std::vector<unsigned> adaptive;  ///< per instruction
  std::uint64_t adaptive_total = 0;
};

Replay replay(const macro::MacroConfig& cfg, const macro::Program& p, bool fuse,
              const macro::AdaptivePolicy& policy, const OperandsOf& operands) {
  Replay r{macro::ReferenceLedger{cfg}, {}, {}, 0};
  const array::RowRef d1 = array::RowRef::dummy(macro::ImcMacro::kDummyOperand);
  const macro::Instruction* prev = nullptr;
  std::optional<std::pair<array::RowRef, unsigned>> staged;  // what D1 holds
  for (std::size_t k = 0; k < p.size(); ++k) {
    const macro::Instruction& i = p.instructions()[k];
    unsigned adaptive = 0;
    if (i.op == macro::Op::Mult) {
      const bool pipelined =
          fuse && prev != nullptr && prev->op == macro::Op::Mult && prev->bits == i.bits;
      const bool d1_staged = pipelined && staged == std::make_pair(i.a, i.bits);
      const auto [a, b] = operands(k);
      const macro::MultPlan plan = host_plan(a, b, i.bits, policy, d1_staged, pipelined);
      r.costs.push_back(r.ledger.charge(i, plan));
      adaptive = plan.adaptive_cycles_saved(i.bits);
      if (plan.staging_cycles() > 0) staged = std::make_pair(i.a, i.bits);
    } else {
      r.costs.push_back(r.ledger.charge(i));
      if (i.op == macro::Op::Sub || i.dest == d1) staged.reset();
    }
    r.adaptive.push_back(adaptive);
    r.adaptive_total += adaptive;
    prev = &i;
  }
  return r;
}

/// The memory's energy from per-macro totals: bank by bank, then across.
Joule bank_fold(const macro::ImcMemory& mem, const std::vector<Joule>& per_macro) {
  Joule total{0.0};
  const std::size_t per_bank = mem.config().macros_per_bank;
  for (std::size_t bk = 0; bk < mem.bank_count(); ++bk) {
    Joule bank{0.0};
    for (std::size_t i = 0; i < mem.bank(bk).macro_count(); ++i)
      bank += per_macro[bk * per_bank + i];
    total += bank;
  }
  return total;
}

/// Lock-step makespan and its policy-off twin over per-macro replays.
std::pair<std::uint64_t, std::uint64_t> makespans(const std::vector<Replay>& per_macro) {
  std::uint64_t cycles = 0, dense = 0;
  for (const Replay& r : per_macro) {
    cycles = std::max(cycles, r.ledger.total_cycles());
    dense = std::max(dense, r.ledger.total_cycles() + r.adaptive_total);
  }
  return {cycles, dense};
}

std::span<const std::uint64_t> chunk_of(const std::vector<std::uint64_t>& v, std::size_t c,
                                        std::size_t per_op) {
  const std::size_t pos = c * per_op;
  return std::span<const std::uint64_t>(v).subspan(pos, std::min(per_op, v.size() - pos));
}

const macro::AdaptivePolicy kPolicies[] = {{}, {true, true}};

TEST(ExecutionEngine, InstructionStreamConservesLedger) {
  // The unified execution model's conservation law at the engine level: the
  // instruction-stream account in RunStats (one single-op program per chunk)
  // must reproduce the reference ledger's replay of the same programs --
  // chunk count as the instruction count, the lock-step makespan as cycles,
  // and the exact nested per-bank energy fold, bitwise -- with the adaptive
  // policy off and on.
  const unsigned bits = 8;
  const std::size_t n = 300;
  auto a = random_vec(n, bits, 21);
  const auto b = random_vec(n, bits, 22);
  for (std::size_t i = 0; i < n; i += 3) a[i] = 0;  // zero multiplicands for the policy
  const auto d1 = array::RowRef::dummy(macro::ImcMacro::kDummyOperand);
  const auto d2 = array::RowRef::dummy(macro::ImcMacro::kDummyAccum);

  struct Case {
    VecOp op;
    macro::Instruction inst;
  };
  std::vector<Case> cases;
  const auto make = [&](OpKind kind, macro::Op mop, periph::LogicFn fn,
                        std::optional<array::RowRef> dest) {
    Case c;
    c.op = VecOp{kind, bits, fn, a,
                 kind == OpKind::Not ? std::span<const std::uint64_t>{}
                                     : std::span<const std::uint64_t>(b)};
    c.inst.op = mop;
    c.inst.logic_fn = fn;
    c.inst.bits = bits;
    c.inst.a = array::RowRef::main(0);
    c.inst.b = array::RowRef::main(1);
    c.inst.dest = dest;
    cases.push_back(std::move(c));
  };
  make(OpKind::Add, macro::Op::Add, periph::LogicFn::And, std::nullopt);
  make(OpKind::Sub, macro::Op::Sub, periph::LogicFn::And, std::nullopt);
  make(OpKind::Mult, macro::Op::Mult, periph::LogicFn::And, std::nullopt);
  make(OpKind::AddShift, macro::Op::AddShift, periph::LogicFn::And, d2);
  make(OpKind::Not, macro::Op::Not, periph::LogicFn::And, d1);
  make(OpKind::Logic, macro::Op::And, periph::LogicFn::Xor, std::nullopt);

  for (const macro::AdaptivePolicy& policy : kPolicies) {
    for (const Case& c : cases) {
      macro::ImcMemory mem(tiny_memory());
      ExecutionEngine eng(mem, EngineConfig{4});
      eng.set_adaptive_policy(policy);
      const std::size_t macros = mem.macro_count();
      const OpResult res = eng.run(c.op);
      const std::size_t per_chunk = eng.elements_per_chunk(c.op);
      const std::uint64_t chunks = (n + per_chunk - 1) / per_chunk;
      const std::string what =
          std::string(to_string(c.op.kind)) + " policy=" + std::to_string(policy.enabled());
      EXPECT_EQ(res.stats.instructions, chunks) << what;

      // Macro m runs chunks m, m + M, ... one single-instruction program each.
      std::vector<Replay> per_macro;
      for (std::size_t m = 0; m < macros; ++m) {
        macro::Program p;
        for (std::uint64_t ch = m; ch < chunks; ch += macros) p.push(c.inst);
        per_macro.push_back(replay(mem.macro(0).config(), p, false, policy, [&](std::size_t k) {
          const std::size_t ch = m + k * macros;
          return std::make_pair(chunk_of(a, ch, per_chunk), chunk_of(b, ch, per_chunk));
        }));
      }
      const auto [cycles, dense] = makespans(per_macro);
      EXPECT_EQ(res.stats.elapsed_cycles, cycles) << what;
      EXPECT_EQ(res.stats.adaptive_cycles_saved, dense - cycles) << what;
      std::vector<Joule> energy;
      for (const Replay& r : per_macro) energy.push_back(r.ledger.total_energy());
      EXPECT_EQ(res.stats.energy.si(), bank_fold(mem, energy).si()) << what;
      if (!policy.enabled()) {
        const macro::InstructionCost ic =
            macro::CostModel(mem.macro(0).config()).instruction_cost(c.inst);
        EXPECT_EQ(res.stats.elapsed_cycles, ic.cycles * ((chunks + macros - 1) / macros)) << what;
      }
    }
  }
}

TEST(ExecutionEngine, ForwardStreamConservesLedger) {
  // run_forward's per-op and batch account against the reference ledger's
  // replay of each macro's fused program: macro m's instruction l*J + j is
  // layer l of op j (activation chunk l*M + m as multiplicand, weight j's
  // as multiplier), every MULT on the chained datapath. Per-op cycles come
  // from macro 0, per-op energy folds macro-then-layer, the batch energy
  // bank-then-macro.
  const unsigned bits = 8;
  const std::size_t n = 500;  // 16 layers: enough terms that fold order shows in the bits
  const std::size_t ops = 3;
  for (const macro::AdaptivePolicy& policy : kPolicies) {
    macro::ImcMemory mem(tiny_memory());
    ExecutionEngine eng(mem, EngineConfig{4});
    eng.set_adaptive_policy(policy);
    const std::size_t macros = mem.macro_count();
    std::vector<std::vector<std::uint64_t>> w;
    std::vector<ResidentOperand> handles;
    for (std::size_t j = 0; j < ops; ++j) {
      w.push_back(random_vec(n, bits, 40 + j));
      for (std::size_t i = j; i < n; i += 4) w.back()[i] >>= 5;  // narrow multipliers
      handles.push_back(eng.pin(w.back(), bits, OperandLayout::MultUnit));
    }
    auto x = random_vec(n, bits, 50);
    for (std::size_t i = 0; i < n; ++i)
      if (i % 4 != 0) x[i] = 0;  // 75%-zero activation
    const std::vector<OpResult> res = eng.run_forward(handles, x);
    ASSERT_EQ(eng.fusion_stats().fused_runs, 1u);
    const BatchStats& batch = eng.last_batch();

    const std::size_t per_op = eng.mult_units_per_row(bits);
    const std::size_t chunks = (n + per_op - 1) / per_op;
    std::vector<Replay> per_macro;
    for (std::size_t m = 0; m < std::min(chunks, macros); ++m) {
      // Rows only need the fused layout's shape: one activation row per
      // layer shared by every op. Prices do not depend on row indices.
      const std::size_t layers_m = (chunks - m - 1) / macros + 1;
      macro::Program p;
      for (std::size_t l = 0; l < layers_m; ++l)
        for (std::size_t j = 0; j < ops; ++j)
          p.mult(array::RowRef::main(2 * l), array::RowRef::main(2 * l + 1), bits);
      per_macro.push_back(replay(mem.macro(0).config(), p, true, policy, [&](std::size_t k) {
        const std::size_t c = (k / ops) * macros + m;
        return std::make_pair(chunk_of(x, c, per_op), chunk_of(w[k % ops], c, per_op));
      }));
    }
    const std::string what = "policy=" + std::to_string(policy.enabled());
    const std::size_t layers0 = per_macro[0].costs.size() / ops;
    for (std::size_t j = 0; j < ops; ++j) {
      std::uint64_t cycles = 0, adaptive = 0, instructions = 0;
      for (std::size_t l = 0; l < layers0; ++l) {
        cycles += per_macro[0].costs[l * ops + j].cycles;
        adaptive += per_macro[0].adaptive[l * ops + j];
      }
      Joule energy{0.0};
      for (const Replay& r : per_macro) {
        instructions += r.costs.size() / ops;
        for (std::size_t l = 0; l < r.costs.size() / ops; ++l)
          energy += r.costs[l * ops + j].energy;
      }
      EXPECT_EQ(res[j].stats.elapsed_cycles, cycles) << what << " op " << j;
      EXPECT_EQ(res[j].stats.adaptive_cycles_saved, adaptive) << what << " op " << j;
      EXPECT_EQ(res[j].stats.instructions, instructions) << what << " op " << j;
      EXPECT_EQ(res[j].stats.energy.si(), energy.si()) << what << " op " << j;
      EXPECT_EQ(res[j].stats.elapsed_cycles + res[j].stats.fused_cycles_saved +
                    res[j].stats.adaptive_cycles_saved,
                macro::op_cycles(macro::Op::Mult, bits) * layers0)
          << what << " op " << j;
    }
    const auto [cycles, dense] = makespans(per_macro);
    std::vector<Joule> energy(macros, Joule{0.0});
    for (std::size_t m = 0; m < per_macro.size(); ++m)
      energy[m] = per_macro[m].ledger.total_energy();
    EXPECT_EQ(batch.compute_cycles, cycles) << what;
    EXPECT_EQ(batch.adaptive_cycles_saved, dense - cycles) << what;
    EXPECT_EQ(batch.energy.si(), bank_fold(mem, energy).si()) << what;
    if (policy.enabled()) {
      EXPECT_GT(batch.adaptive_cycles_saved, 0u);
    }
  }
}

TEST(ExecutionEngine, ChainStreamConservesLedger) {
  // run_chain's account against the reference ledger's replay of each
  // macro's chain program (compiled here exactly as the engine compiles
  // it): makespan cycles, summed instructions, bank-then-macro energy.
  const unsigned bits = 4;
  const std::size_t n = 150;
  auto ca = random_vec(n, bits, 60);
  const auto cb = random_vec(n, 2, 61);  // 2-bit multipliers narrow the MULTs
  const auto l0 = random_vec(n, 2 * bits, 62);
  const auto l1 = random_vec(n, 2 * bits, 63);
  for (std::size_t i = 0; i < n; i += 2) ca[i] = 0;
  for (const macro::AdaptivePolicy& policy : kPolicies) {
    macro::ImcMemory mem(tiny_memory());
    ExecutionEngine eng(mem, EngineConfig{4});
    eng.set_adaptive_policy(policy);
    const std::size_t macros = mem.macro_count();
    ChainRequest req;
    req.bits = bits;
    req.a = ca;
    req.b = cb;
    req.links = {{macro::ChainLinkKind::Add, l0}, {macro::ChainLinkKind::AddShift, l1}};
    const OpResult res = eng.run_chain(req);

    const std::size_t per_op = eng.mult_units_per_row(bits);
    const std::size_t chunks = (n + per_op - 1) / per_op;
    const std::size_t links = req.links.size();
    const std::size_t pairs_per_layer = (2 + links + 1) / 2;
    const macro::FusionCompiler compiler(mem.macro(0).config().geometry);
    std::vector<Replay> per_macro;
    std::uint64_t instructions = 0;
    for (std::size_t m = 0; m < std::min(chunks, macros); ++m) {
      macro::ChainSpec spec;
      spec.bits = bits;
      for (std::size_t l = 0; l < (chunks - m - 1) / macros + 1; ++l) {
        macro::ChainLayerSpec layer;
        layer.a_row = 2 * pairs_per_layer * l;
        layer.b_row = layer.a_row + 1;
        for (std::size_t j = 0; j < links; ++j)
          layer.links.emplace_back(req.links[j].kind, layer.a_row + 2 + j);
        spec.layers.push_back(std::move(layer));
      }
      const macro::VerifiedProgram vp = compiler.compile_chain(spec);
      instructions += vp.program().size();
      per_macro.push_back(
          replay(mem.macro(0).config(), vp.program(), true, policy, [&](std::size_t k) {
            const std::size_t c = (k / (1 + links)) * macros + m;
            return std::make_pair(chunk_of(ca, c, per_op), chunk_of(cb, c, per_op));
          }));
    }
    const std::string what = "policy=" + std::to_string(policy.enabled());
    const auto [cycles, dense] = makespans(per_macro);
    std::vector<Joule> energy(macros, Joule{0.0});
    for (std::size_t m = 0; m < per_macro.size(); ++m)
      energy[m] = per_macro[m].ledger.total_energy();
    EXPECT_EQ(res.stats.instructions, instructions) << what;
    EXPECT_EQ(res.stats.elapsed_cycles, cycles) << what;
    EXPECT_EQ(res.stats.adaptive_cycles_saved, dense - cycles) << what;
    EXPECT_EQ(res.stats.energy.si(), bank_fold(mem, energy).si()) << what;
    EXPECT_EQ(eng.last_batch().energy.si(), res.stats.energy.si()) << what;
    if (policy.enabled()) {
      EXPECT_GT(res.stats.adaptive_cycles_saved, 0u);
    }
  }
}

TEST(ExecutionEngine, SingleOpProgramsAreCachedAcrossRuns) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{4});
  const auto a = random_vec(300, 8, 23);
  const auto b = random_vec(300, 8, 24);
  const VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, b};
  EXPECT_EQ(eng.op_program_cache_stats().compiled, 0u);
  (void)eng.run(op);
  // 300 words in 16-word chunks over 4 macros -> 5 row pairs -> 5 programs.
  const auto first = eng.op_program_cache_stats();
  EXPECT_EQ(first.compiled, 5u);
  EXPECT_EQ(first.hits, 0u);
  (void)eng.run(op);
  const auto second = eng.op_program_cache_stats();
  EXPECT_EQ(second.compiled, first.compiled);  // nothing recompiled
  EXPECT_EQ(second.hits, 5u);
}

TEST(ExecutionEngine, ConcurrentBatchOverProgramPath) {
  // TSan fodder: 8 workers share the OpCompiler cache and per-macro
  // controllers across a mixed-kind batch; results must still be the serial
  // answers, and the instruction account must be populated.
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{8});
  const unsigned bits = 8;
  const auto a = random_vec(200, bits, 25);
  const auto b = random_vec(200, bits, 26);
  const std::vector<VecOp> ops = {
      {OpKind::Mult, bits, periph::LogicFn::And, a, b},
      {OpKind::Add, bits, periph::LogicFn::And, a, b},
      {OpKind::AddShift, bits, periph::LogicFn::And, a, b},
      {OpKind::Not, bits, periph::LogicFn::And, a, {}},
      {OpKind::Sub, bits, periph::LogicFn::And, a, b},
      {OpKind::Logic, bits, periph::LogicFn::Xor, a, b},
  };
  for (int rep = 0; rep < 3; ++rep) {
    const auto results = eng.run_batch(ops);
    ASSERT_EQ(results.size(), ops.size());
    for (std::size_t k = 0; k < ops.size(); ++k)
      expect_identical(run_fresh(ops[k], 1), results[k], to_string(ops[k].kind));
    EXPECT_GT(eng.last_batch().instructions, 0u);
  }
}

TEST(ExecutionEngine, CapacityOverflowRejected) {
  macro::ImcMemory mem(tiny_memory());
  ExecutionEngine eng(mem, EngineConfig{2});
  // 4 macros x 64 row pairs x 16 words = 4096 elements max at 8 bits.
  const auto a = random_vec(4097, 8, 13);
  VecOp op{OpKind::Add, 8, periph::LogicFn::And, a, a};
  EXPECT_THROW((void)eng.run(op), std::invalid_argument);
}

}  // namespace
}  // namespace bpim::engine
