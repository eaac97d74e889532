#include "cell/sram6t.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/require.hpp"

namespace bpim::cell {

using circuit::DeviceKind;
using circuit::Mosfet;
using circuit::VtFlavor;

CellMismatch CellMismatch::sample(Rng& rng, const CellGeometry& g,
                                  const circuit::ProcessParams& p) {
  CellMismatch mm;
  mm.d_access = Volt(rng.normal(0.0, Mosfet::mismatch_sigma(g.w_access_um, p).si()));
  mm.d_pulldown = Volt(rng.normal(0.0, Mosfet::mismatch_sigma(g.w_pulldown_um, p).si()));
  mm.d_pullup = Volt(rng.normal(0.0, Mosfet::mismatch_sigma(g.w_pullup_um, p).si()));
  // The opposite inverter's pair lumped into one trip-point shift; RSS of the
  // pull-up and pull-down sigmas, each entering the trip with weight ~0.5.
  const double s_pd = Mosfet::mismatch_sigma(g.w_pulldown_um, p).si();
  const double s_pu = Mosfet::mismatch_sigma(g.w_pullup_um, p).si();
  const double s_trip = 0.5 * std::sqrt(s_pd * s_pd + s_pu * s_pu);
  mm.d_trip = Volt(rng.normal(0.0, s_trip));
  return mm;
}

ReadPath::ReadPath(const CellGeometry& g, const circuit::OperatingPoint& op,
                   const CellMismatch& mm, const circuit::ProcessParams& p)
    : access_(DeviceKind::Nmos, VtFlavor::Regular, g.w_access_um, op, p, mm.d_access),
      pulldown_(DeviceKind::Nmos, VtFlavor::Regular, g.w_pulldown_um, op, p, mm.d_pulldown),
      pulldown_on_(pulldown_.drive(op.vdd)) {}

Ampere ReadPath::current(const Mosfet::Drive& access, Volt v_bl) const {
  if (v_bl.si() <= 0.0) return Ampere(0.0);
  // Series stack approximated by series conductances evaluated with the full
  // BL voltage across each device; pessimistic by < 2x and smooth, which is
  // what the transient solver needs.
  const double i_acc = Mosfet::current(access, v_bl).si();
  const double i_pd = Mosfet::current(pulldown_on_, v_bl).si();
  if (i_acc <= 0.0 || i_pd <= 0.0) return Ampere(0.0);
  return Ampere(i_acc * i_pd / (i_acc + i_pd));
}

Sram6tCell::Sram6tCell(const CellGeometry& g, const circuit::OperatingPoint& op,
                       const CellMismatch& mm, const circuit::ProcessParams& p)
    : op_(op),
      read_(g, op, mm, p),
      pullup_(DeviceKind::Pmos, VtFlavor::Regular, g.w_pullup_um, op, p, mm.d_pullup),
      pullup_on_(pullup_.drive(op.vdd)),
      d_trip_(mm.d_trip) {}

Volt Sram6tCell::trip_unless_below(double level) const {
  // Inverter trip point: gate voltage where the pull-down saturation current
  // equals the pull-up saturation current. Both are this sample's devices,
  // mismatch included; d_trip then adds the opposite pair's lumped shift.
  const double vdd = op_.vdd.si();
  double lo = 0.05, hi = vdd - 0.05;
  for (int i = 0; i < 48; ++i) {
    // Each midpoint lies between lo and hi (inverted below a 0.1 V supply),
    // so the bracket only narrows and the final trip can be no higher than
    // its current top.
    const double top = std::max(lo, hi) + d_trip_.si();
    if (top <= level) return Volt(top);
    const double mid = 0.5 * (lo + hi);
    const double i_dn = read_.pulldown().current(Volt(mid), Volt(vdd)).si();
    const double i_up = pullup_.current(Volt(vdd - mid), Volt(vdd)).si();
    (i_dn < i_up ? lo : hi) = mid;
  }
  return Volt(0.5 * (lo + hi) + d_trip_.si());
}

Volt Sram6tCell::trip_low() const {
  return trip_unless_below(-std::numeric_limits<double>::infinity());
}
Volt Sram6tCell::trip_high() const { return trip_low(); }

Volt Sram6tCell::bump_voltage(Volt v_wl, Volt v_bl) const {
  // '0' node pulled up through the access device against the pull-down.
  double lo = 0.0, hi = v_bl.si();
  for (int i = 0; i < 40; ++i) {
    const double vx = 0.5 * (lo + hi);
    const double i_up =
        read_.access().current(Volt(v_wl.si() - vx), Volt(v_bl.si() - vx)).si();
    const double i_dn = Mosfet::current(read_.pulldown_on(), Volt(vx)).si();
    (i_up > i_dn ? lo : hi) = vx;
  }
  return Volt(0.5 * (lo + hi));
}

Volt Sram6tCell::sag_voltage(Volt v_wl, Volt v_bl) const {
  // '1' node pulled down toward a low BL against the pull-up. The access
  // source sits on the BL, so its gate drive is the same at every step.
  const double vdd = op_.vdd.si();
  const Mosfet::Drive access = read_.access().drive(Volt(v_wl.si() - v_bl.si()));
  double lo = v_bl.si(), hi = vdd;
  for (int i = 0; i < 40; ++i) {
    const double vq = 0.5 * (lo + hi);
    const double i_dn = Mosfet::current(access, Volt(vq - v_bl.si())).si();
    const double i_up = Mosfet::current(pullup_on_, Volt(vdd - vq)).si();
    (i_up > i_dn ? lo : hi) = vq;
  }
  return Volt(0.5 * (lo + hi));
}

Second Sram6tCell::regeneration_time(Volt disturbed, Volt trip) const {
  // First-order latch regeneration: tau scales with the inverse of the
  // overdrive past the trip point. tau0 is a fitted latch time constant.
  constexpr double tau0_s = 4.0e-12;
  const double excess = std::abs(disturbed.si() - trip.si());
  if (excess < 1e-4) return Second(1.0);  // effectively never regenerates
  return Second(tau0_s * (trip.si() / excess + 1.0));
}

bool Sram6tCell::flips_with_low_bl(Volt v_wl, Volt v_bl, Second duration) const {
  const Volt vq = sag_voltage(v_wl, v_bl);
  // Most samples sag nowhere near the trip: stop bisecting once it is
  // certain to lie at or below vq.
  const Volt trip = trip_unless_below(vq.si());
  if (vq.si() >= trip.si()) return false;
  return duration.si() >= regeneration_time(vq, trip).si();
}

bool Sram6tCell::flips_with_high_bl(Volt v_wl, Volt v_bl, Second duration) const {
  const Volt vx = bump_voltage(v_wl, v_bl);
  const Volt trip = trip_low();
  if (vx.si() <= trip.si()) return false;
  return duration.si() >= regeneration_time(vx, trip).si();
}

}  // namespace bpim::cell
