// Waveforms and the fixed-step integrator, validated against analytic RC.

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/transient.hpp"

namespace bpim::circuit {
namespace {

using namespace bpim::literals;

TEST(Waveform, EmptyIsZero) {
  Waveform w;
  EXPECT_DOUBLE_EQ(w.at(1.0_ns).si(), 0.0);
}

TEST(Waveform, ConstantHoldsLevel) {
  const Waveform w = Waveform::constant(0.55_V);
  EXPECT_DOUBLE_EQ(w.at(0.0_ns).si(), 0.55);
  EXPECT_DOUBLE_EQ(w.at(5.0_ns).si(), 0.55);
}

TEST(Waveform, PulseShape) {
  const Waveform w = Waveform::pulse(10.0_ps, 140.0_ps, 0.9_V, 20.0_ps, 25.0_ps);
  EXPECT_DOUBLE_EQ(w.at(0.0_ps).si(), 0.0);
  EXPECT_DOUBLE_EQ(w.at(10.0_ps).si(), 0.0);
  EXPECT_NEAR(w.at(20.0_ps).si(), 0.45, 1e-9);   // mid-rise
  EXPECT_DOUBLE_EQ(w.at(30.0_ps).si(), 0.9);     // plateau start
  EXPECT_DOUBLE_EQ(w.at(170.0_ps).si(), 0.9);    // plateau end
  EXPECT_NEAR(w.at(182.5_ps).si(), 0.45, 1e-9);  // mid-fall
  EXPECT_DOUBLE_EQ(w.at(300.0_ps).si(), 0.0);
}

TEST(Waveform, RejectsUnorderedBreakpoints) {
  Waveform w;
  w.add_point(1.0_ns, 0.9_V);
  EXPECT_THROW(w.add_point(0.5_ns, 0.0_V), std::invalid_argument);
}

TEST(Integrator, MatchesAnalyticRcDischarge) {
  // dv/dt = -v/RC with RC = 100 ps, v0 = 1 V; v(t) = exp(-t/RC).
  constexpr double rc = 100e-12;
  NodeState<1> v{1.0};
  integrate<1>(
      [&](double, const NodeState<1>& s, NodeState<1>& d) { d[0] = -s[0] / rc; }, v,
      Second(200e-12), Second(0.1e-12), [](double, const NodeState<1>&) {});
  EXPECT_NEAR(v[0], std::exp(-2.0), 1e-4);
}

TEST(Integrator, ThresholdCrossingInterpolates) {
  constexpr double rc = 100e-12;
  const auto res = integrate_until_below<1>(
      [&](double, const NodeState<1>& s, NodeState<1>& d) { d[0] = -s[0] / rc; },
      NodeState<1>{1.0}, 0, Volt(std::exp(-1.0)), Second(500e-12), Second(0.5e-12));
  ASSERT_TRUE(res.crossed);
  EXPECT_NEAR(res.time.si(), 100e-12, 1e-12);  // crosses 1/e at t = RC
}

TEST(Integrator, ReportsNoCrossingWhenAboveThreshold) {
  const auto res = integrate_until_below<1>(
      [&](double, const NodeState<1>&, NodeState<1>& d) { d[0] = 0.0; }, NodeState<1>{1.0}, 0,
      0.5_V, Second(1e-9), Second(1e-12));
  EXPECT_FALSE(res.crossed);
}

TEST(Integrator, TwoNodeCoupling) {
  // Node 1 integrates node 0's constant: v1(t) = k*t.
  NodeState<2> v{2.0, 0.0};
  integrate<2>(
      [&](double, const NodeState<2>& s, NodeState<2>& d) {
        d[0] = 0.0;
        d[1] = s[0];
      },
      v, Second(1e-9), Second(1e-12), [](double, const NodeState<2>&) {});
  EXPECT_NEAR(v[1], 2.0e-9, 1e-13);
}

TEST(Integrator, WatchIndexValidated) {
  auto f = [](double, const NodeState<1>&, NodeState<1>& d) { d[0] = 0.0; };
  EXPECT_THROW(
      integrate_until_below<1>(f, NodeState<1>{1.0}, 3, 0.5_V, Second(1e-9), Second(1e-12)),
      std::invalid_argument);
}

TEST(Integrator, UntilBelowStopsAtTheCrossingStep) {
  // Counting derivative calls shows the loop ends at the step that crosses
  // (two calls per Heun step), not at t_end. The threshold is crossed near
  // 100.25 ps, mid-way through a step.
  constexpr double rc = 100e-12;
  constexpr double dt = 0.5e-12;
  int calls = 0;
  const auto res = integrate_until_below<1>(
      [&](double, const NodeState<1>& s, NodeState<1>& d) {
        ++calls;
        d[0] = -s[0] / rc;
      },
      NodeState<1>{1.0}, 0, Volt(std::exp(-100.25e-12 / rc)), Second(20e-9), Second(dt));
  ASSERT_TRUE(res.crossed);
  ASSERT_EQ(calls % 2, 0);
  const int steps = calls / 2;
  EXPECT_LE((steps - 1) * dt, res.time.si());
  EXPECT_GE(steps * dt, res.time.si());
  EXPECT_LT(steps, 20e-9 / dt / 100);  // far short of t_end
}

TEST(Integrator, ObserverReturningFalseEndsIntegration) {
  NodeState<1> v{0.0};
  int seen = 0;
  integrate<1>([](double, const NodeState<1>&, NodeState<1>& d) { d[0] = 1.0; }, v,
               Second(1e-9), Second(1e-12),
               [&](double, const NodeState<1>&) { return ++seen < 5; });
  EXPECT_EQ(seen, 5);
  EXPECT_NEAR(v[0], 5e-12, 1e-24);
}

}  // namespace
}  // namespace bpim::circuit
