// bpim_perfbench: runs one benchmark workload and writes its raw record
// (set-up times, per-request latencies, public counters, check outcome) as
// JSON for perfbench/run.py to summarize.
//
// Usage: bpim_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> --raw <file> [--trace-dir <dir>]
//        bpim_perfbench --mode setup --workload <name> --seed <n>
//   --trace 0  one untraced phase of <s> seconds, which also times a
//              fixture set-up every 0.25 s: it runs this binary again with
//              --mode setup and waits for it
//   --trace 1  an untraced phase of <s>/2 seconds, then a traced one of
//              <s>/2: obs::TraceSession on in 20 ms windows, each drained
//              to <dir>/trace-<i>.json while tracing is off
//   --mode setup  set the workload's fixture up, serve its warm-up request,
//              and print the process's CPU seconds so far on stdout
//
// The process pins itself to one vCPU before it starts any thread, and
// takes every host time (set-up, latencies, phase length) on its CPU clock;
// see harness.hpp.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json_writer.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr double kSetupPeriodS = 0.25;

struct Options {
  bool setup_only = false;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string raw;
  std::string trace_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "bpim_perfbench: " << why
            << "\nusage: bpim_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --raw <file> [--trace-dir <dir>]\n"
               "       bpim_perfbench --mode setup --workload <name> --seed <n>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--mode") {
      if (v != "setup" && v != "run") usage("--mode is setup or run");
      o.setup_only = v == "setup";
    } else if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--seconds") o.seconds = std::stod(v);
    else if (arg == "--trace") o.trace = v == "1";
    else if (arg == "--raw") o.raw = v;
    else if (arg == "--trace-dir") o.trace_dir = v;
    else usage("unknown argument " + arg);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.setup_only) return o;
  if (o.raw.empty()) usage("--raw is required");
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  if (o.trace && o.trace_dir.empty()) usage("--trace 1 needs --trace-dir");
  return o;
}

/// CPU seconds of one set-up in a fresh process: `exe` run with --mode
/// setup. The child's CPU time is its own, outside this process's clock.
double setup_in_child(const char* exe, const Options& o) {
  const std::string seed = std::to_string(o.seed);
  const char* argv[] = {exe, "--mode", "setup", "--workload", o.workload.c_str(),
                        "--seed", seed.c_str(), nullptr};
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("setup probe: pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, exe, &fa, nullptr, const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  if (err == 0) {
    char buf[64];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (err != 0) throw std::runtime_error("setup probe: cannot run " + std::string(exe));
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty())
    throw std::runtime_error("setup probe: the --mode setup child failed");
  return std::stod(out);
}

}  // namespace

namespace perfbench {

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "serve_mixed_churn") return make_serve_mixed_churn(seed);
  if (name == "mlp_forward_sparse") return make_mlp_forward_sparse(seed);
  if (name == "mc_bl_characterization") return make_mc_bl_characterization(seed);
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) try {
  const Options opt = parse(argc, argv);
  const int cpu = pin_to_one_cpu();
  std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed);
  if (!wl) usage("unknown workload " + opt.workload);

  wl->setup();
  if (opt.setup_only) {
    // Process start to a served warm-up request; tear-down is not counted.
    std::cout.precision(9);
    std::cout << seconds_between(CpuClock::time_point{}, CpuClock::now()) << std::endl;
    return 0;
  }
  // setup_s: set-ups in fresh processes, timed through the untraced phase
  // between its requests, so that they meet the same host states.
  SetupProbe probe{[&] { return setup_in_child(argv[0], opt); }, kSetupPeriodS, {}};

  std::vector<std::pair<std::string, Phase>> phases;
  std::size_t chunks = 0;
  std::vector<double> windows;
  if (!opt.trace) {
    phases.emplace_back("untraced", wl->run(opt.seconds, &probe));
  } else {
    phases.emplace_back("untraced", wl->run(opt.seconds / 2, nullptr));
    std::filesystem::create_directories(opt.trace_dir);
    auto& session = bpim::obs::TraceSession::global();
    session.set_macro_events(wl->wants_macro_events());
    TraceDrain drain(opt.trace_dir, std::chrono::milliseconds(20));
    phases.emplace_back("traced", wl->run(opt.seconds / 2, nullptr));
    drain.stop();
    session.set_macro_events(false);
    chunks = drain.chunks();
    windows = drain.windows_us();
  }
  const std::string check = wl->check();

  bpim::JsonWriter w(opt.raw, 9);
  w.begin_object();
  w.field("schema", "bpim.perfbench.raw.v1");
  w.field("workload", opt.workload);
  w.field("seed", opt.seed);
  w.field("seconds", opt.seconds);
  w.field("trace", opt.trace);
  w.key("config");
  w.begin_object();
  wl->write_config(w);
  w.field("pinned_cpu", cpu);
  w.field("clock", "process CPU time");
  w.end_object();
  w.field("setup_s", probe.samples_s);
  w.field("peak_rss_mb", phases.front().second.peak_rss_mb);
  w.field("check", check);
  w.field("trace_chunks", chunks);
  w.field("trace_windows_us", windows);
  w.field("trace_dropped", bpim::obs::TraceSession::global().dropped());
  w.key("phases");
  w.begin_object();
  for (const auto& [name, phase] : phases) {
    w.key(name);
    phase.write(w);
  }
  w.end_object();
  w.end_object();
  if (!w.ok()) {
    std::cerr << "bpim_perfbench: cannot write " << opt.raw << "\n";
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bpim_perfbench: " << e.what() << "\n";
  return 1;
}
