// mc_bl_characterization: the circuit/timing Monte Carlo behind Fig. 2,
// single-threaded. One request is one characterization round: a fixed mix
// of four estimator calls, each with its own seeded trial count --
//   bl_delay_distribution(ShortWlBoost), bl_delay_distribution(Wlud),
//   wlud_disturb_rate(0.55 V), shortwl_disturb_rate
// -- sized so the four calls cost about the same host time. The run's
// aggregate is checked against the bounds test_bl_compute and test_adm
// assert (statistical bounds, not digests: the RNG streams may change).

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/montecarlo.hpp"
#include "circuit/process.hpp"
#include "common/stats.hpp"
#include "obs/trace.hpp"
#include "timing/adm.hpp"
#include "timing/bl_compute.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bpim::SampleSet;
using bpim::circuit::FailureRateResult;
using bpim::timing::BlScheme;

constexpr std::size_t kBoostTrials = 2;
constexpr std::size_t kWludTrials = 1;
constexpr std::size_t kAdmWludTrials = 30;
constexpr std::size_t kAdmShortTrials = 12;
constexpr double kWludLevelV = 0.55;
constexpr std::size_t kRssRequests = 1500;  ///< peak RSS read after ~2 s of rounds

/// (p99 - p50) / (p50 - p1): the right-tail skew test_bl_compute bounds.
double skew(const SampleSet& s) {
  return (s.percentile(0.99) - s.percentile(0.5)) / (s.percentile(0.5) - s.percentile(0.01));
}

class McBlCharacterization final : public Workload {
 public:
  explicit McBlCharacterization(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    cfg_ = bpim::timing::BlComputeConfig{};
    op_ = bpim::circuit::OperatingPoint{bpim::Volt(0.9), 25.0, bpim::circuit::Corner::NN};
    boost_ = SampleSet{};
    wlud_ = SampleSet{};
    adm_wlud_ = FailureRateResult{};
    adm_short_ = FailureRateResult{};
    calls_ = 0;
    Tally warm;
    round(warm);
    if (warm.completed != 1) throw std::runtime_error("mc_bl_characterization: warm-up failed");
  }

  Phase run(double seconds, SetupProbe* probe) override {
    Phase p = single_loop(seconds, kRssRequests, [&](Tally& t) { round(t); }, probe);
    p.stat("boost_trials", static_cast<double>(p.tally.completed * kBoostTrials));
    p.stat("wlud_trials", static_cast<double>(p.tally.completed * kWludTrials));
    p.stat("adm_wlud_trials", static_cast<double>(p.tally.completed * kAdmWludTrials));
    p.stat("adm_short_trials", static_cast<double>(p.tally.completed * kAdmShortTrials));
    return p;
  }

  std::string check() override {
    std::ostringstream why;
    const double prop_cv = boost_.stddev() / boost_.mean();
    const double wlud_cv = wlud_.stddev() / wlud_.mean();
    if (!(prop_cv < 0.30)) why << "boost delay CV " << prop_cv << " >= 0.30; ";
    if (!(wlud_cv > 0.12)) why << "WLUD delay CV " << wlud_cv << " <= 0.12; ";
    if (!(boost_.mean() < wlud_.mean())) why << "boost mean delay not below WLUD; ";
    if (!(skew(wlud_) > 1.3)) why << "WLUD skew " << skew(wlud_) << " <= 1.3; ";
    if (!(skew(boost_) < skew(wlud_))) why << "boost skew not below WLUD skew; ";
    if (!(adm_wlud_.rate() < 3.0e-4)) why << "WLUD disturb rate " << adm_wlud_.rate() << " >= 3e-4; ";
    if (!(adm_wlud_.rate_upper95() > 1.0e-6)) why << "WLUD disturb upper95 <= 1e-6; ";
    if (!(adm_short_.rate() < 1.0e-4)) why << "short-WL disturb rate " << adm_short_.rate() << " >= 1e-4; ";
    // test_adm compares failures at equal trial counts; scale WLUD's count
    // to the short-WL trials before applying the same +5 slack.
    const double wlud_scaled = static_cast<double>(adm_wlud_.failures) *
                               static_cast<double>(adm_short_.trials) /
                               static_cast<double>(adm_wlud_.trials);
    if (!(static_cast<double>(adm_short_.failures) <= wlud_scaled + 5.0))
      why << "short-WL disturb failures exceed WLUD's + 5; ";
    return why.str();
  }

  void write_config(bpim::JsonWriter& w) const override {
    w.field("loop", "closed, one caller, single-threaded");
    w.field("request", "one round: one call of each estimator below");
    w.field("rss_after_requests", kRssRequests);
    w.field("bl_delay_boost_trials", kBoostTrials);
    w.field("bl_delay_wlud_trials", kWludTrials);
    w.field("adm_wlud_trials", kAdmWludTrials);
    w.field("adm_wlud_level_v", kWludLevelV);
    w.field("adm_shortwl_trials", kAdmShortTrials);
    w.field("operating_point", "0.9 V, 25 C, NN");
    w.field("bl_config", "BlComputeConfig defaults (128 rows)");
  }

 private:
  std::uint64_t next_seed() { return stream(seed_, 7, calls_++).next_u64(); }

  void round(Tally& t) {
    ++t.attempted;
    const auto t0 = CpuClock::now();
    {
      bpim::obs::Span span("bench.mc.bl_delay.boost");
      span.arg("trials", kBoostTrials);
      const SampleSet s = bpim::timing::bl_delay_distribution(BlScheme::ShortWlBoost, cfg_, op_,
                                                              kBoostTrials, next_seed());
      for (double x : s.samples()) boost_.add(x);
    }
    {
      bpim::obs::Span span("bench.mc.bl_delay.wlud");
      span.arg("trials", kWludTrials);
      const SampleSet s =
          bpim::timing::bl_delay_distribution(BlScheme::Wlud, cfg_, op_, kWludTrials, next_seed());
      for (double x : s.samples()) wlud_.add(x);
    }
    {
      bpim::obs::Span span("bench.mc.adm.wlud");
      span.arg("trials", kAdmWludTrials);
      const auto r = bpim::timing::wlud_disturb_rate(cfg_, op_, bpim::Volt(kWludLevelV),
                                                     kAdmWludTrials, next_seed());
      adm_wlud_.trials += r.trials;
      adm_wlud_.failures += r.failures;
    }
    {
      bpim::obs::Span span("bench.mc.adm.shortwl");
      span.arg("trials", kAdmShortTrials);
      const auto r = bpim::timing::shortwl_disturb_rate(cfg_, op_, kAdmShortTrials, next_seed());
      adm_short_.trials += r.trials;
      adm_short_.failures += r.failures;
    }
    t.done(us_between(t0, CpuClock::now()));
  }

  std::uint64_t seed_;
  std::uint64_t calls_ = 0;
  bpim::timing::BlComputeConfig cfg_;
  bpim::circuit::OperatingPoint op_;
  SampleSet boost_, wlud_;
  FailureRateResult adm_wlud_, adm_short_;
};

}  // namespace

std::unique_ptr<Workload> make_mc_bl_characterization(std::uint64_t seed) {
  return std::make_unique<McBlCharacterization>(seed);
}

}  // namespace perfbench
