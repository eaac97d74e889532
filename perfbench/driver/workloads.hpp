#pragma once
// The benchmark's workloads. Each one owns a fixture (memories, engines,
// server, pinned weights...) that setup() builds from scratch, and runs
// measured phases against it through the library's public API only.
//
// Lifecycle, driven by main.cpp:
//   setup()      x 1   -- builds the fixture and serves one warm-up request
//   run(seconds) x 1-2 -- one measured phase (untraced, then traced when
//                         --trace 1), every result checked against a host
//                         reference as it arrives; the untraced phase of
//                         --trace 0 also takes set-up timings through its
//                         SetupProbe
//   check()            -- whole-run checks that need the aggregate (the
//                         Monte Carlo's statistical bounds); empty = pass

#include <cstdint>
#include <memory>
#include <string>

#include "common/json_writer.hpp"
#include "harness.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual void setup() = 0;
  /// `probe` may be null: no set-up timings in this phase.
  [[nodiscard]] virtual Phase run(double seconds, SetupProbe* probe) = 0;
  /// Aggregate check over every phase run so far; a non-empty string names
  /// the failed bound.
  [[nodiscard]] virtual std::string check() { return {}; }
  /// The full workload configuration (clients, memories, engine threads,
  /// precisions, kind mix, sparsity...), recorded with every run.
  virtual void write_config(bpim::JsonWriter& w) const = 0;
  /// True when the traced phase should also record per-macro-program
  /// events (the only source of instruction counts on that workload).
  [[nodiscard]] virtual bool wants_macro_events() const { return false; }
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

[[nodiscard]] std::unique_ptr<Workload> make_serve_mixed_churn(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_mlp_forward_sparse(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_mc_bl_characterization(std::uint64_t seed);

}  // namespace perfbench
