#pragma once
// Tiny fixed-step transient solver for the handful of nodes the behavioural
// circuit models need (bit line + booster mirror node), plus a piecewise-
// linear Waveform used for word-line pulses.
//
// We deliberately avoid a general netlist solver: every circuit in this
// repository has <= 4 nodes and its derivative function is hand-written,
// which keeps the Monte-Carlo loops fast and the physics auditable.

#include <array>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/require.hpp"
#include "common/units.hpp"

namespace bpim::circuit {

/// Piecewise-linear waveform: (time, value) breakpoints, held flat outside.
class Waveform {
 public:
  Waveform() = default;

  Waveform& add_point(Second t, Volt v) {
    BPIM_REQUIRE(points_.empty() || t.si() >= points_.back().first,
                 "waveform breakpoints must be time-ordered");
    points_.emplace_back(t.si(), v.si());
    return *this;
  }

  [[nodiscard]] Volt at(Second t) const;

  /// Trapezoidal pulse: 0 before t0, ramps to `level` over `rise`, holds for
  /// `width`, ramps back over `fall`.
  static Waveform pulse(Second t0, Second width, Volt level, Second rise, Second fall);
  /// Constant level from t=0.
  static Waveform constant(Volt level);

 private:
  std::vector<std::pair<double, double>> points_;
};

/// State vector for up to N nodes (values in volts).
template <std::size_t N>
using NodeState = std::array<double, N>;

/// Result of a threshold search on a transient run.
struct CrossingResult {
  bool crossed = false;
  Second time{0.0};
};

/// Integrates dv/dt = f(t, v) with Heun's method (RK2) at fixed step `dt`
/// until `t_end`, calling `observer(t, v)` after every step. f receives and
/// returns volts/seconds as raw doubles for speed. An observer that returns
/// bool ends the integration early by returning false.
template <std::size_t N, class Deriv, class Observer>
void integrate(Deriv&& f, NodeState<N>& v, Second t_end, Second dt, Observer&& observer) {
  const double h = dt.si();
  const double tend = t_end.si();
  NodeState<N> k1{}, k2{}, pred{};
  for (double t = 0.0; t < tend; t += h) {
    f(t, v, k1);
    for (std::size_t i = 0; i < N; ++i) pred[i] = v[i] + h * k1[i];
    f(t + h, pred, k2);
    for (std::size_t i = 0; i < N; ++i) v[i] += 0.5 * h * (k1[i] + k2[i]);
    if constexpr (std::is_same_v<std::invoke_result_t<Observer&, double, NodeState<N>&>, bool>) {
      if (!observer(t + h, v)) return;
    } else {
      observer(t + h, v);
    }
  }
}

/// Convenience: integrate until node `watch` falls below `threshold` (volts),
/// returning the (linearly interpolated) crossing time. Stops at the step
/// that crosses.
template <std::size_t N, class Deriv>
CrossingResult integrate_until_below(Deriv&& f, NodeState<N> v, std::size_t watch, Volt threshold,
                                     Second t_end, Second dt) {
  BPIM_REQUIRE(watch < N, "watch node out of range");
  CrossingResult out;
  double prev_t = 0.0;
  double prev_v = v[watch];
  integrate<N>(std::forward<Deriv>(f), v, t_end, dt, [&](double t, const NodeState<N>& state) {
    if (state[watch] < threshold.si()) {
      // Linear interpolation between the previous and current sample.
      const double dv = state[watch] - prev_v;
      const double frac = dv != 0.0 ? (threshold.si() - prev_v) / dv : 1.0;
      out.crossed = true;
      out.time = Second(prev_t + frac * (t - prev_t));
      return false;
    }
    prev_t = t;
    prev_v = state[watch];
    return true;
  });
  return out;
}

}  // namespace bpim::circuit
