// serve_mixed_churn: one closed-loop client against serve::Server over a
// 2-memory pool, adaptive policy off. A seeded mix of all six OpKinds at
// 2/4/8/16 bits and 1-4 layers, a third of the single ops on operands the
// client pinned (re-pinned fresh every epoch, so the pinned set outgrows the
// row-pair budget and residency evicts), plus fused chains and forwards
// whose weights are pinned under the client's colocate key.
//
// Every result is compared with a scalar host reference as it arrives.

#include <array>
#include <exception>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/execution_engine.hpp"
#include "macro/memory.hpp"
#include "obs/trace.hpp"
#include "serve/memory_pool.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bpim::Rng;
using bpim::engine::ChainLink;
using bpim::engine::ChainLinkKind;
using bpim::engine::ChainRequest;
using bpim::engine::ExecutionEngine;
using bpim::engine::OperandLayout;
using bpim::engine::OpKind;
using bpim::engine::OpResult;
using bpim::engine::ResidentOperand;
using bpim::engine::VecOp;
using bpim::periph::LogicFn;
using bpim::serve::Server;

/// One client, on the calling thread. The process runs on one vCPU
/// (pin_to_one_cpu()), where the client, the scheduler and the lane worker
/// take turns; with two clients the turn order, and with it the latency,
/// switched between modes from run to run.
constexpr std::size_t kClients = 1;
constexpr std::uint64_t kColocateKey = 0xF0;
constexpr std::size_t kRssRequests = 20000;  ///< peak RSS read after ~2 s of requests
constexpr std::size_t kMacrosPerMemory = 16;
constexpr std::size_t kEngineThreads = 1;

bpim::macro::MemoryConfig memory_shape() {
  bpim::macro::MemoryConfig cfg;
  cfg.banks = 1;
  cfg.macros_per_bank = kMacrosPerMemory;
  return cfg;
}

std::uint64_t mask_of(unsigned bits) { return bits >= 64 ? ~0ull : (1ull << bits) - 1; }

/// Scalar reference of one element of a single op.
std::uint64_t reference(OpKind kind, LogicFn fn, unsigned bits, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t m = mask_of(bits);
  switch (kind) {
    case OpKind::Add: return (a + b) & m;
    case OpKind::Sub: return (a - b) & m;
    case OpKind::AddShift: return ((a + b) << 1) & m;
    case OpKind::Not: return ~a & m;
    case OpKind::Mult: return a * b;
    case OpKind::Logic:
      switch (fn) {
        case LogicFn::And: return a & b;
        case LogicFn::Nand: return ~(a & b) & m;
        case LogicFn::Or: return a | b;
        case LogicFn::Nor: return ~(a | b) & m;
        case LogicFn::Xor: return a ^ b;
        case LogicFn::Xnor: return ~(a ^ b) & m;
        default: break;
      }
  }
  return ~0ull;  // unreachable for the kinds this file sends
}

void account(Tally& t, const OpResult& r) {
  t.instructions += r.stats.instructions;
  t.cycles += r.stats.elapsed_cycles;
  t.fused_saved += r.stats.fused_cycles_saved;
  t.adaptive_saved += r.stats.adaptive_cycles_saved;
}

/// One closed-loop request: submit (span "bench.submit"), wait for the
/// result (span "bench.wait"), record the latency from the call to result
/// ready, then check. A throw anywhere counts the request as failed.
///
/// The client blocks on its future. With the whole process on one vCPU,
/// the submit has already woken the scheduler thread, so the vCPU goes
/// straight from the client to the server and back, and is never idle while
/// a request is open: the CPU clock sees the whole request. (A timed linger
/// in the server would be idle time the CPU clock misses; the default
/// ServerConfig has none.) A client that polled with yields instead made
/// the latency switch between two modes, ~60 and ~100 us, for whole runs.
template <class Submit, class Check>
void request(Tally& t, Submit&& submit, Check&& check) {
  ++t.attempted;
  try {
    const auto t0 = CpuClock::now();
    auto fut = [&] {
      bpim::obs::Span span("bench.submit");
      return submit();
    }();
    auto result = [&] {
      bpim::obs::Span span("bench.wait");
      return fut.get();
    }();
    t.done(us_between(t0, CpuClock::now()));
    check(result);
  } catch (const std::exception&) {
    ++t.failed;
  }
}

/// Check a single op's values against the scalar reference.
void check_op(Tally& t, const OpResult& r, OpKind kind, LogicFn fn, unsigned bits,
              const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  account(t, r);
  if (r.values.size() != a.size()) {
    t.mismatch(std::string(bpim::engine::to_string(kind)) + ": wrong result length");
    return;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t want = reference(kind, fn, bits, a[i], b.empty() ? 0 : b[i]);
    if (r.values[i] != want) {
      t.mismatch(std::string(bpim::engine::to_string(kind)) + " " + std::to_string(bits) +
                 "-bit element " + std::to_string(i) + ": got " + std::to_string(r.values[i]) +
                 ", want " + std::to_string(want));
      return;
    }
  }
}

/// Public counters of a server and its pool's engines, for phase deltas.
struct ServeSnapshot {
  bpim::serve::ServeStats serve;
  EngineCounts engines;
};

ServeSnapshot snapshot(const Server& server) {
  std::vector<const ExecutionEngine*> engines;
  for (std::size_t m = 0; m < server.pool().size(); ++m) engines.push_back(&server.pool().engine(m));
  return ServeSnapshot{server.stats(), count_engines(engines)};
}

void add_stats(Phase& p, const ServeSnapshot& a, const ServeSnapshot& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  p.stat("server_completed", d(a.serve.completed, b.serve.completed));
  p.stat("batches", d(a.serve.batches, b.serve.batches));
  p.stat("rejected", d(a.serve.rejected, b.serve.rejected));
  p.stat("expired", d(a.serve.expired, b.serve.expired));
  p.stat("peak_queue_depth", static_cast<double>(b.serve.peak_queue_depth));
  p.stat("makespan_cycles", d(a.serve.modeled_makespan_cycles, b.serve.modeled_makespan_cycles));
  p.stat("energy_nj", (b.serve.energy.si() - a.serve.energy.si()) * 1e9);
  p.stat("load_cycles", d(a.serve.modeled_load_cycles, b.serve.modeled_load_cycles));
  add_deltas(p, a.engines, b.engines);
}

// ---- serve_mixed_churn ------------------------------------------------------

constexpr std::size_t kMemories = 2;
constexpr std::array<unsigned, 4> kOpBits{2, 4, 8, 16};
constexpr std::array<unsigned, 3> kChainBits{2, 4, 8};
constexpr std::array<OpKind, 6> kKinds{OpKind::Add,  OpKind::Sub, OpKind::Mult,
                                       OpKind::AddShift, OpKind::Not, OpKind::Logic};
constexpr std::array<OpKind, 5> kWordKinds{OpKind::Add, OpKind::Sub, OpKind::AddShift,
                                           OpKind::Not, OpKind::Logic};
constexpr std::array<LogicFn, 6> kLogicFns{LogicFn::And, LogicFn::Nand, LogicFn::Or,
                                           LogicFn::Nor, LogicFn::Xor,  LogicFn::Xnor};
constexpr std::size_t kMaxOpLayers = 4;
constexpr std::size_t kMaxChainLayers = 3;
constexpr std::size_t kPinnedPerEpoch = 18;  ///< operands each client holds pinned
constexpr std::size_t kMinPinLayers = 2, kMaxPinLayers = 8;
constexpr std::size_t kEpochRequests = 72;  ///< requests between re-pins
constexpr std::size_t kForwardWeights = 4;
constexpr unsigned kForwardBits = 8;
constexpr double kForwardShare = 0.08;
constexpr double kChainShare = 0.10;
constexpr double kPinnedShare = 1.0 / 3.0;  ///< of the single ops

template <class T, std::size_t N>
T pick(const std::array<T, N>& xs, Rng& rng) {
  return xs[rng.uniform_u64(N)];
}

class ServeMixedChurn final : public Workload {
 public:
  explicit ServeMixedChurn(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    client_ = Client{};
    client_.rng = stream(seed_, 100, 0);
    server_.reset();
    pool_.reset();
    bpim::serve::MemoryPoolConfig pcfg;
    pcfg.memories = kMemories;
    pcfg.memory = memory_shape();
    pcfg.threads_per_memory = kEngineThreads;
    pool_ = std::make_unique<bpim::serve::MemoryPool>(pcfg);
    server_ = std::make_unique<Server>(*pool_);
    Client& cl = client_;
    const std::size_t n = per_layer(kForwardBits, OperandLayout::MultUnit);
    for (std::size_t j = 0; j < kForwardWeights; ++j) {
      cl.fwd_values.push_back(random_codes(n, kForwardBits, cl.rng));
      cl.fwd_handles.push_back(server_->pin(cl.fwd_values.back(), kForwardBits,
                                            OperandLayout::MultUnit, kColocateKey));
    }
    repin(cl);
    cl.repins = 0;  // count only the re-pins of measured phases
    Tally warm;
    send_forward(warm, cl);
    if (warm.completed != 1 || warm.mismatches != 0)
      throw std::runtime_error("serve_mixed_churn: warm-up request failed");
  }

  Phase run(double seconds, SetupProbe* probe) override {
    const ServeSnapshot before = snapshot(*server_);
    Phase p = single_loop(seconds, kRssRequests, [&](Tally& t) { send(t, client_); }, probe);
    add_stats(p, before, snapshot(*server_));
    p.stat("repins", static_cast<double>(std::exchange(client_.repins, 0)));
    return p;
  }

  void write_config(bpim::JsonWriter& w) const override {
    w.field("loop", "closed");
    w.field("clients", kClients);
    w.field("rss_after_requests", kRssRequests);
    w.field("memories", kMemories);
    w.field("macros_per_memory", kMacrosPerMemory);
    w.field("engine_threads_per_memory", kEngineThreads);
    w.field("placement", "least-loaded");
    w.field("server_config", "default");
    w.field("adaptive_policy", "off");
    w.field("kind_mix",
            "forward 8%, chain 10%, single op 82% (ADD/SUB/MULT/ADD-SHIFT/NOT/LOGIC uniform; "
            "1/3 on a pinned operand)");
    w.field("op_bits", "2/4/8/16 uniform");
    w.field("op_layers", "1-4 uniform, ragged tail");
    w.field("chain", "2/4/8-bit head MULT, 1-3 layers, 1-2 ADD or ADD-SHIFT links");
    w.field("forward", "4 pinned 8-bit weights x one MULT layer per client, colocated");
    w.field("pinned_per_client", kPinnedPerEpoch);
    w.field("pin_layers", "2-8 uniform");
    w.field("repin_every_requests", kEpochRequests);
  }

 private:
  struct Pinned {
    ResidentOperand handle;
    std::vector<std::uint64_t> values;
  };
  struct Client {
    Rng rng{0};
    std::vector<Pinned> pinned;
    std::size_t epoch_left = 0;
    std::uint64_t repins = 0;
    std::vector<std::vector<std::uint64_t>> fwd_values;
    std::vector<ResidentOperand> fwd_handles;
  };

  /// Elements of one row-pair layer: one row pair on every macro.
  [[nodiscard]] std::size_t per_layer(unsigned bits, OperandLayout layout) const {
    const ExecutionEngine& eng = server_->engine();
    return eng.elements_per_chunk(bits, layout) * kMacrosPerMemory;
  }

  /// Elements spanning exactly `layers` row-pair layers, with a ragged tail.
  std::size_t length(unsigned bits, OperandLayout layout, std::size_t layers, Rng& rng) const {
    const std::size_t layer = per_layer(bits, layout);
    return layers * layer - rng.uniform_u64(layer);
  }

  /// Drop the client's pinned set and pin a fresh one (its own requests
  /// have all resolved: the loop is closed).
  void repin(Client& cl) {
    for (const Pinned& p : cl.pinned) server_->unpin(p.handle);
    cl.pinned.clear();
    for (std::size_t i = 0; i < kPinnedPerEpoch; ++i) {
      const OperandLayout layout = i % 2 == 0 ? OperandLayout::MultUnit : OperandLayout::Word;
      const unsigned bits = pick(kOpBits, cl.rng);
      const std::size_t layers = kMinPinLayers + cl.rng.uniform_u64(kMaxPinLayers - kMinPinLayers + 1);
      Pinned p;
      p.values = random_codes(length(bits, layout, layers, cl.rng), bits, cl.rng);
      p.handle = server_->pin(p.values, bits, layout);
      cl.pinned.push_back(std::move(p));
    }
    cl.epoch_left = kEpochRequests;
    ++cl.repins;
  }

  void send(Tally& t, Client& cl) {
    if (cl.epoch_left == 0) repin(cl);
    --cl.epoch_left;
    const double u = cl.rng.uniform();
    if (u < kForwardShare)
      send_forward(t, cl);
    else if (u < kForwardShare + kChainShare)
      send_chain(t, cl);
    else if (cl.rng.uniform() < kPinnedShare)
      send_pinned_op(t, cl);
    else
      send_transient_op(t, cl);
  }

  void send_transient_op(Tally& t, Client& cl) {
    const OpKind kind = pick(kKinds, cl.rng);
    const unsigned bits = pick(kOpBits, cl.rng);
    const LogicFn fn = pick(kLogicFns, cl.rng);
    const OperandLayout layout = kind == OpKind::Mult ? OperandLayout::MultUnit : OperandLayout::Word;
    const std::size_t n = length(bits, layout, 1 + cl.rng.uniform_u64(kMaxOpLayers), cl.rng);
    const auto a = random_codes(n, bits, cl.rng);
    const auto b = kind == OpKind::Not ? std::vector<std::uint64_t>{} : random_codes(n, bits, cl.rng);
    const VecOp op{kind, bits, fn, a, b};
    request(t, [&] { return server_->submit(op); },
            [&](const OpResult& r) { check_op(t, r, kind, fn, bits, a, b); });
  }

  void send_pinned_op(Tally& t, Client& cl) {
    const Pinned& p = cl.pinned[cl.rng.uniform_u64(cl.pinned.size())];
    const unsigned bits = p.handle.bits;
    const OpKind kind =
        p.handle.layout == OperandLayout::MultUnit ? OpKind::Mult : pick(kWordKinds, cl.rng);
    const LogicFn fn = pick(kLogicFns, cl.rng);
    const auto b = kind == OpKind::Not ? std::vector<std::uint64_t>{}
                                       : random_codes(p.values.size(), bits, cl.rng);
    VecOp op{kind, bits, fn, {}, b};
    op.ra = p.handle;
    request(t, [&] { return server_->submit(op); },
            [&](const OpResult& r) { check_op(t, r, kind, fn, bits, p.values, b); });
  }

  void send_chain(Tally& t, Client& cl) {
    const unsigned bits = pick(kChainBits, cl.rng);
    const std::size_t n =
        length(bits, OperandLayout::MultUnit, 1 + cl.rng.uniform_u64(kMaxChainLayers), cl.rng);
    const auto a = random_codes(n, bits, cl.rng);
    const auto b = random_codes(n, bits, cl.rng);
    const std::size_t links = 1 + cl.rng.uniform_u64(2);
    std::vector<std::vector<std::uint64_t>> link_values;
    ChainRequest req;
    req.bits = bits;
    req.a = a;
    req.b = b;
    for (std::size_t l = 0; l < links; ++l) link_values.push_back(random_codes(n, 2 * bits, cl.rng));
    for (std::size_t l = 0; l < links; ++l)
      req.links.push_back(ChainLink{cl.rng.uniform() < 0.5 ? ChainLinkKind::Add : ChainLinkKind::AddShift,
                                    link_values[l]});
    request(t, [&] { return server_->submit_chain(req); },
            [&](const OpResult& r) {
              account(t, r);
              const std::uint64_t m = mask_of(2 * bits);
              for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t acc = a[i] * b[i];
                for (const ChainLink& link : req.links) {
                  acc = (acc + link.values[i]) & m;
                  if (link.kind == ChainLinkKind::AddShift) acc = (acc << 1) & m;
                }
                if (r.values.size() != n || r.values[i] != acc) {
                  t.mismatch("chain " + std::to_string(bits) + "-bit element " + std::to_string(i));
                  return;
                }
              }
            });
  }

  void send_forward(Tally& t, Client& cl) {
    const auto x = random_codes(cl.fwd_values.front().size(), kForwardBits, cl.rng);
    request(t, [&] { return server_->submit_forward(cl.fwd_handles, x); },
            [&](const std::vector<OpResult>& rs) {
              for (const OpResult& r : rs) account(t, r);
              for (std::size_t j = 0; j < kForwardWeights; ++j)
                for (std::size_t i = 0; i < x.size(); ++i)
                  if (rs.size() != kForwardWeights || rs[j].values.size() != x.size() ||
                      rs[j].values[i] != cl.fwd_values[j][i] * x[i]) {
                    t.mismatch("forward weight " + std::to_string(j) + " element " +
                               std::to_string(i));
                    return;
                  }
            });
  }

  std::uint64_t seed_;
  std::unique_ptr<bpim::serve::MemoryPool> pool_;
  std::unique_ptr<Server> server_;
  Client client_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed_churn(std::uint64_t seed) {
  return std::make_unique<ServeMixedChurn>(seed);
}

}  // namespace perfbench
