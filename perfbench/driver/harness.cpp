#include "harness.hpp"

#include <sched.h>

#include <cerrno>
#include <cstring>

#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

bpim::Rng stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
  // SplitMix-style finalizer over the three keys: nearby seeds give
  // unrelated streams.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull ^ (purpose + 0x632BE59BD9B4E019ull) * 0xBF58476D1CE4E5B9ull ^
                    (index + 1) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  x *= 0xD6E8FEB86659FD93ull;
  x ^= x >> 32;
  return bpim::Rng(x);
}

std::vector<std::uint64_t> random_codes(std::size_t n, unsigned bits, bpim::Rng& rng) {
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_u64() & mask;
  return v;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error(std::string("sched_getaffinity: ") + std::strerror(errno));
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &allowed)) cpu = i;
  if (cpu < 0) throw std::runtime_error("sched_getaffinity: no CPU allowed");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0)
    throw std::runtime_error(std::string("sched_setaffinity: ") + std::strerror(errno));
  return cpu;
}

namespace {

/// Requests per second a phase can complete without reallocating its sample
/// buffer: ~6x today's fastest workload.
constexpr double kMaxRate = 65536.0;

double session_us() {
  return static_cast<double>(bpim::obs::TraceSession::global().now_ns()) / 1e3;
}

}  // namespace

void Tally::begin(double origin_us, CpuClock::time_point cpu_origin, double seconds) {
  origin_us_ = origin_us;
  cpu_origin_ = cpu_origin;
  samples.reserve(static_cast<std::size_t>(kMaxRate * seconds));
}

void Tally::done(double us) {
  samples.push_back(Sample{static_cast<float>(us),
                           static_cast<float>(us_between(cpu_origin_, CpuClock::now())),
                           static_cast<float>(session_us() - origin_us_)});
  ++completed;
}

void Tally::mismatch(std::string what) {
  if (mismatches++ == 0) first_mismatch = std::move(what);
}

void Phase::write(bpim::JsonWriter& w) const {
  w.begin_object();
  w.field("start_us", start_us);
  w.field("wall_s", wall_s);
  w.field("cpu_s", cpu_s);
  w.field("peak_rss_mb", peak_rss_mb);
  w.field("attempted", tally.attempted);
  w.field("completed", tally.completed);
  w.field("failed", tally.failed);
  w.field("mismatches", tally.mismatches);
  w.field("first_mismatch", tally.first_mismatch);
  w.field("instructions", tally.instructions);
  w.field("cycles", tally.cycles);
  w.field("fused_saved", tally.fused_saved);
  w.field("adaptive_saved", tally.adaptive_saved);
  w.key("stats");
  w.begin_object();
  for (const auto& [name, value] : stats) w.field(name, value);
  w.end_object();
  for (float Sample::*field : {&Sample::latency_us, &Sample::cpu_done_us, &Sample::done_us}) {
    w.key(field == &Sample::latency_us    ? "latency_us"
          : field == &Sample::cpu_done_us ? "cpu_done_us"
                                          : "done_us");
    w.begin_array();
    for (const Sample& s : tally.samples) w.value(static_cast<double>(s.*field));
    w.end_array();
  }
  w.end_object();
}

EngineCounts count_engines(std::span<const bpim::engine::ExecutionEngine* const> engines) {
  EngineCounts c;
  for (const bpim::engine::ExecutionEngine* eng : engines) {
    const auto cache = eng->op_program_cache_stats();
    c.op_cache_hits += cache.hits;
    c.op_cache_compiled += cache.compiled;
    const auto res = eng->residency_stats();
    c.materializations += res.materializations;
    c.evictions += res.evictions;
    const auto& fus = eng->fusion_stats();
    c.fusion_compiles += fus.compiles;
    c.fusion_recompiles += fus.recompiles;
    c.fused_runs += fus.fused_runs;
    c.fallback_runs += fus.fallback_runs;
  }
  c.verify_rejected = bpim::obs::MetricsRegistry::global().counter("macro.verify.rejected").value();
  return c;
}

void add_deltas(Phase& p, const EngineCounts& a, const EngineCounts& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  p.stat("op_cache_hits", d(a.op_cache_hits, b.op_cache_hits));
  p.stat("op_cache_compiled", d(a.op_cache_compiled, b.op_cache_compiled));
  p.stat("materializations", d(a.materializations, b.materializations));
  p.stat("evictions", d(a.evictions, b.evictions));
  p.stat("fusion_compiles", d(a.fusion_compiles, b.fusion_compiles));
  p.stat("fusion_recompiles", d(a.fusion_recompiles, b.fusion_recompiles));
  p.stat("fused_runs", d(a.fused_runs, b.fused_runs));
  p.stat("fallback_runs", d(a.fallback_runs, b.fallback_runs));
  p.stat("verify_rejected", d(a.verify_rejected, b.verify_rejected));
}

Phase single_loop(double seconds, std::size_t rss_after, const std::function<void(Tally&)>& body,
                  SetupProbe* probe) {
  Phase p;
  Tally t;
  p.start_us = session_us();
  const auto cpu_start = CpuClock::now();
  t.begin(p.start_us, cpu_start, seconds);
  const auto start = WallClock::now();
  const auto deadline = start + std::chrono::duration_cast<WallClock::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto period = std::chrono::duration_cast<WallClock::duration>(
      std::chrono::duration<double>(probe ? probe->period_s : seconds));
  CpuClock::duration paused{};
  for (auto next_probe = start + period / 2;;) {
    const auto now = WallClock::now();
    if (now >= deadline) break;
    if (probe && now >= next_probe) {
      const auto t0 = CpuClock::now();
      probe->samples_s.push_back(probe->setup());
      const auto d = CpuClock::now() - t0;
      t.pause(d);
      paused += d;
      next_probe += period;
      continue;
    }
    body(t);
    if (t.completed == rss_after) p.peak_rss_mb = peak_rss_mb();
  }
  if (t.completed < rss_after) p.peak_rss_mb = peak_rss_mb();
  p.wall_s = seconds_between(start, WallClock::now());
  p.cpu_s = std::chrono::duration<double>(CpuClock::now() - cpu_start - paused).count();
  p.tally = std::move(t);
  return p;
}

TraceDrain::TraceDrain(std::string dir, std::chrono::milliseconds window)
    : dir_(std::move(dir)) {
  thread_ = std::thread([this, window] {
    auto& session = bpim::obs::TraceSession::global();
    while (running_.load(std::memory_order_relaxed)) {
      const double on = session_us();
      session.enable();
      std::this_thread::sleep_for(window);
      session.disable();
      windows_us_.push_back(on);
      windows_us_.push_back(session_us());
      export_chunk();
    }
  });
}

TraceDrain::~TraceDrain() { stop(); }

void TraceDrain::stop() {
  if (!thread_.joinable()) return;
  running_.store(false, std::memory_order_relaxed);
  thread_.join();
  if (!write_error_.empty()) throw std::runtime_error(write_error_);
}

void TraceDrain::export_chunk() {
  const std::string path = dir_ + "/trace-" + std::to_string(chunks_) + ".json";
  if (!bpim::obs::TraceSession::global().export_file(path)) {
    write_error_ = "cannot write trace chunk " + path;
    running_.store(false, std::memory_order_relaxed);
  }
  ++chunks_;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter also holds the peak of the
  // process image this one was exec'd from (here, a forked Python).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
