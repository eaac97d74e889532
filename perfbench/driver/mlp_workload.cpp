// mlp_forward_sparse: one caller issuing back-to-back app::Mlp::forward
// calls on a 256-32-16-8 MLP (8/8/4-bit layers) whose weights are pinned
// and fused at construction, with the adaptive policy {narrow_precision,
// skip_zero} on. Inputs are a seeded stream of ReLU-sparse vectors (~75%
// zeros); every output is checked against Mlp::forward_reference at a
// 1e-9 relative tolerance.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/mlp.hpp"
#include "engine/execution_engine.hpp"
#include "macro/isa.hpp"
#include "macro/memory.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bpim::Rng;
using bpim::engine::ExecutionEngine;

constexpr std::size_t kEngineThreads = 1;
constexpr double kZeroShare = 0.75;
constexpr double kRelTolerance = 1e-9;
constexpr std::size_t kRssRequests = 1000;  ///< peak RSS read after ~2.5 s of forwards
const std::vector<std::size_t> kSizes{256, 32, 16, 8};
const std::vector<unsigned> kBits{8, 8, 4};

class MlpForwardSparse final : public Workload {
 public:
  explicit MlpForwardSparse(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    mlp_.reset();
    eng_.reset();
    mem_.reset();
    mem_ = std::make_unique<bpim::macro::ImcMemory>();
    eng_ = std::make_unique<ExecutionEngine>(*mem_, bpim::engine::EngineConfig{kEngineThreads});
    eng_->set_adaptive_policy(bpim::macro::AdaptivePolicy{true, true});
    Rng rng = stream(seed_, 1);
    std::vector<bpim::app::MlpLayerSpec> specs;
    for (std::size_t l = 0; l + 1 < kSizes.size(); ++l) {
      bpim::app::MlpLayerSpec spec;
      spec.bits = kBits[l];
      spec.weights.assign(kSizes[l + 1], std::vector<double>(kSizes[l]));
      for (auto& row : spec.weights)
        for (auto& w : row) w = rng.uniform(0.0, 1.0);
      specs.push_back(std::move(spec));
    }
    mlp_ = std::make_unique<bpim::app::Mlp>(std::move(specs), *eng_);
    Tally warm;
    forward(warm, rng);
    if (warm.completed != 1 || warm.mismatches != 0)
      throw std::runtime_error("mlp_forward_sparse: warm-up forward failed");
  }

  Phase run(double seconds, SetupProbe* probe) override {
    Rng rng = stream(seed_, 2 + ++phase_);
    Modeled m;
    const EngineCounts before = counts();
    Phase p = single_loop(seconds, kRssRequests, [&](Tally& t) { forward(t, rng, &m); }, probe);
    p.stat("energy_nj", m.energy_nj);
    p.stat("load_cycles", static_cast<double>(m.load_cycles));
    p.stat("zero_share", m.inputs == 0 ? 0.0 : static_cast<double>(m.zeros) / static_cast<double>(m.inputs));
    add_deltas(p, before, counts());
    return p;
  }

  /// app::Mlp keeps its RunStats to itself: the per-macro-program trace
  /// instants are where the traced phase counts instructions.
  [[nodiscard]] bool wants_macro_events() const override { return true; }

  void write_config(bpim::JsonWriter& w) const override {
    w.field("loop", "closed, one caller");
    w.field("clients", 1);
    w.field("rss_after_requests", kRssRequests);
    w.field("memories", 1);
    w.field("macros_per_memory", mem_->macro_count());
    w.field("engine_threads", kEngineThreads);
    w.field("layers", "256-32-16-8");
    w.field("bits", "8/8/4");
    w.field("weights", "pinned and fused at construction, uniform [0,1)");
    w.field("adaptive_policy", "narrow_precision + skip_zero");
    w.field("input_zero_share", kZeroShare);
    w.field("input_nonzero", "uniform [0,1)");
    w.field("reference_rel_tolerance", kRelTolerance);
  }

 private:
  /// LayerStats account summed over a phase's forwards, beyond the cycle
  /// split the Tally carries.
  struct Modeled {
    std::uint64_t load_cycles = 0;
    double energy_nj = 0.0;
    std::uint64_t inputs = 0, zeros = 0;
  };

  [[nodiscard]] EngineCounts counts() const {
    const ExecutionEngine* eng = eng_.get();
    return count_engines({&eng, 1});
  }

  void forward(Tally& t, Rng& rng, Modeled* m = nullptr) {
    std::vector<double> x(kSizes.front(), 0.0);
    for (auto& v : x)
      if (rng.uniform() >= kZeroShare) v = rng.uniform(0.0, 1.0);
    ++t.attempted;
    std::vector<double> y;
    try {
      const auto t0 = CpuClock::now();
      {
        bpim::obs::Span span("bench.forward");
        y = mlp_->forward(*eng_, x);
      }
      t.done(us_between(t0, CpuClock::now()));
    } catch (const std::exception&) {
      ++t.failed;
      return;
    }
    const auto ref = mlp_->forward_reference(x);
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (y.size() != ref.size() ||
          std::abs(y[i] - ref[i]) > kRelTolerance * std::max(1.0, std::abs(ref[i]))) {
        t.mismatch("forward output " + std::to_string(i) + " off the host reference");
        break;
      }
    if (m == nullptr) return;
    const auto& st = mlp_->last_stats();
    m->load_cycles += st.load_cycles;
    m->energy_nj += st.energy.si() * 1e9;
    m->inputs += x.size();
    m->zeros += static_cast<std::uint64_t>(std::count(x.begin(), x.end(), 0.0));
    t.cycles += st.cycles;
    t.fused_saved += st.fused_cycles_saved;
    t.adaptive_saved += st.adaptive_cycles_saved;
  }

  std::uint64_t seed_;
  std::uint64_t phase_ = 0;
  std::unique_ptr<bpim::macro::ImcMemory> mem_;
  std::unique_ptr<ExecutionEngine> eng_;
  std::unique_ptr<bpim::app::Mlp> mlp_;
};

}  // namespace

std::unique_ptr<Workload> make_mlp_forward_sparse(std::uint64_t seed) {
  return std::make_unique<MlpForwardSparse>(seed);
}

}  // namespace perfbench
