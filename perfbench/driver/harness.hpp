#pragma once
// Shared machinery of the perfbench workloads: the measured-phase record
// every workload fills, the engine counters sampled around a phase, the
// closed-loop request runner with its set-up probe, the duty-cycled trace
// drain that empties
// obs::TraceSession rings to chunk files, and the small host helpers
// (clocks, CPU pinning, seeded streams, peak RSS).
//
// Host times are measured on the process's CPU clock, with the whole
// process pinned to one vCPU (pin_to_one_cpu(), called before any thread
// starts). On one vCPU that the process keeps busy -- a serve client
// blocks only while the server thread it has woken runs -- the CPU clock
// advances with the wall clock except while the host runs something else on
// that vCPU (steal time, which the guest kernel keeps out of task CPU time)
// or the guest runs another process there. The CPU clock leaves both out.
//
// The driver measures only through the library's public API. Spans the
// benchmark records itself ("bench.*") go through the same global
// TraceSession as the program's own spans, so one export holds both and the
// summarizer folds them together.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <ctime>

#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "engine/execution_engine.hpp"

namespace perfbench {

/// Run deadlines: a phase lasts its --seconds on the wall clock.
using WallClock = std::chrono::steady_clock;

/// What the benchmark measures with: CPU time of the whole process.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec));
  }
};

template <class TimePoint>
[[nodiscard]] double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}
template <class TimePoint>
[[nodiscard]] double us_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Restrict this process to the last vCPU it may run on; threads started
/// afterwards inherit it. Returns that CPU's number; throws if the
/// affinity cannot be set.
int pin_to_one_cpu();

/// Independent, reproducible stream for (run seed, purpose, index): every
/// input of a run derives from the --seed argument through this.
[[nodiscard]] bpim::Rng stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index = 0);

/// Uniform values of `bits` width.
[[nodiscard]] std::vector<std::uint64_t> random_codes(std::size_t n, unsigned bits, bpim::Rng& rng);

/// One completed request, in microseconds: its latency on the CPU clock,
/// and its completion instant counted from the phase start on the CPU
/// clock and on the trace-session clock (which the trace windows use).
/// Floats keep the buffer small.
struct Sample {
  float latency_us;
  float cpu_done_us;
  float done_us;
};

/// Outcome of a phase's requests.
struct Tally {
  std::uint64_t attempted = 0;  ///< requests sent
  std::uint64_t completed = 0;  ///< results received
  std::uint64_t failed = 0;     ///< refused, expired or threw
  std::uint64_t mismatches = 0;  ///< results that disagree with the host reference
  std::string first_mismatch;
  std::vector<Sample> samples;  ///< one per completed request
  /// Modeled account summed over completed requests' RunStats.
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t fused_saved = 0;
  std::uint64_t adaptive_saved = 0;

  /// Start a measured phase of `seconds` at `origin` (trace-session clock,
  /// us) and `cpu_origin`. Reserves the sample buffer up front, so that it
  /// never reallocates between requests; its pages become resident only as
  /// samples fill them.
  void begin(double origin_us, CpuClock::time_point cpu_origin, double seconds);
  /// One request completed `latency_us` (CPU clock) after its call.
  void done(double latency_us);
  /// Leave `d` of CPU time (a set-up probe's) out of the phase timeline.
  void pause(CpuClock::duration d) { cpu_origin_ += d; }
  void mismatch(std::string what);

 private:
  double origin_us_ = 0.0;
  CpuClock::time_point cpu_origin_{};
};

/// One measured phase as the driver reports it.
struct Phase {
  double start_us = 0.0;  ///< trace-session clock
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time over the phase, set-up probes left out
  /// Peak RSS once the phase had completed its rss_after requests (or at
  /// its end, if it never did).
  double peak_rss_mb = 0.0;
  Tally tally;
  /// Named counts and modeled totals (deltas over the phase unless the
  /// name says otherwise), in emission order.
  std::vector<std::pair<std::string, double>> stats;

  void stat(std::string name, double value) { stats.emplace_back(std::move(name), value); }
  void write(bpim::JsonWriter& w) const;
};

/// Public counters of a set of engines, summed, plus the process-wide
/// macro.verify.rejected counter: sampled before and after a phase.
struct EngineCounts {
  std::uint64_t op_cache_hits = 0, op_cache_compiled = 0;
  std::uint64_t materializations = 0, evictions = 0;
  std::uint64_t fusion_compiles = 0, fusion_recompiles = 0, fused_runs = 0, fallback_runs = 0;
  std::uint64_t verify_rejected = 0;
};

[[nodiscard]] EngineCounts count_engines(
    std::span<const bpim::engine::ExecutionEngine* const> engines);

/// Record after - before of every EngineCounts field as a phase stat.
void add_deltas(Phase& p, const EngineCounts& before, const EngineCounts& after);

/// Set-up timings spread through a phase, so that they sample the same
/// host states as the phase's requests: every `period_s` of wall time the
/// loop pauses between two requests and calls `setup`, which sets a fixture
/// up elsewhere and returns the CPU seconds that took.
struct SetupProbe {
  std::function<double()> setup;
  double period_s = 0.25;
  std::vector<double> samples_s;
};

/// Closed loop on the calling thread: body(tally) per request until
/// `seconds` of wall time elapse, plus `probe`'s set-ups if it is set. The
/// phase's CPU time (cpu_s, the samples' cpu_done_us) leaves out what the
/// probe costs this process. The phase's peak RSS is read after
/// `rss_after` requests: the program keeps memory per request served
/// (program caches, ServeLedger), so a read at the end would follow the
/// run's throughput.
[[nodiscard]] Phase single_loop(double seconds, std::size_t rss_after,
                                const std::function<void(Tally&)>& body,
                                SetupProbe* probe = nullptr);

/// Duty-cycled tracing: enable the global trace session for `window`,
/// disable it, drain every per-thread ring into the next chunk file
/// (`dir`/trace-<i>.json), and repeat until stop(). The rings hold 8192
/// events per thread and the exporter is slower than a busy server emits,
/// so tracing continuously would drop events; short windows drained while
/// tracing is off drop none. Spans still open when a window closes are
/// lost, so consumers only see spans wholly inside a window.
class TraceDrain {
 public:
  TraceDrain(std::string dir, std::chrono::milliseconds window);
  ~TraceDrain();
  TraceDrain(const TraceDrain&) = delete;
  TraceDrain& operator=(const TraceDrain&) = delete;

  /// Join the drain thread; throws if a chunk could not be written.
  void stop();
  [[nodiscard]] std::size_t chunks() const { return chunks_; }
  /// Tracing-on intervals as flat [start, end, start, end, ...] in
  /// microseconds of the trace-session clock (the exported ts clock).
  [[nodiscard]] const std::vector<double>& windows_us() const { return windows_us_; }

 private:
  void export_chunk();

  std::string dir_;
  std::atomic<bool> running_{true};
  std::size_t chunks_ = 0;
  std::vector<double> windows_us_;
  std::string write_error_;  ///< set by the drain thread, thrown by stop()
  std::thread thread_;
};

/// Peak resident set size of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
