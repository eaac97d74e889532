#include "circuit/mosfet.hpp"

#include <cmath>

#include "common/require.hpp"

namespace bpim::circuit {

Mosfet::Mosfet(DeviceKind kind, VtFlavor flavor, double w_um, const OperatingPoint& op,
               const ProcessParams& p, Volt vth_delta)
    : kind_(kind), w_um_(w_um) {
  BPIM_REQUIRE(w_um > 0.0, "device width must be positive");

  const bool is_n = kind == DeviceKind::Nmos;
  double vth = (is_n ? p.vth_n : p.vth_p).si();
  if (flavor == VtFlavor::LowVt) vth -= p.lvt_offset.si();

  // Corner: slow = higher Vt and weaker kp.
  const int sign = corner_sign(op.corner, kind);
  vth += sign * p.corner_vth_shift.si();
  double kp = is_n ? p.kp_n_a_per_um : p.kp_p_a_per_um;
  if (sign > 0) kp /= p.corner_kp_factor;
  if (sign < 0) kp *= p.corner_kp_factor;

  // Temperature: Vth drops when hot, mobility degrades.
  const double dt = op.temp_c - 25.0;
  vth += p.vth_tempco_v_per_k * dt;
  kp *= std::pow((op.temp_c + 273.15) / (25.0 + 273.15), p.mobility_temp_exp);

  vth_ = Volt(vth + vth_delta.si());
  kp_ = kp;
  alpha_ = is_n ? p.alpha_n : p.alpha_p;
  vdsat_frac_ = p.vdsat_frac;
  // EKV-style smoothing temperature scale: n * kT/q. The resulting
  // subthreshold swing is ln(10)*s/alpha per decade (~70 mV/dec here).
  subvt_swing_ = p.subvt_n_factor * thermal_voltage(op.temp_c).si();
  ioff_ = p.ioff_a_per_um;
}

Mosfet::Drive Mosfet::drive(Volt vgs) const {
  // EKV interpolation of the overdrive: smooth transition from exponential
  // subthreshold conduction to the alpha-power strong-inversion law.
  const double vov = vgs.si() - vth_.si();
  const double s = subvt_swing_;
  double veff;
  const double x = vov / s;
  if (x > 40.0) {
    veff = vov;
  } else if (x < -40.0) {
    return {};
  } else {
    veff = s * std::log1p(std::exp(x));
  }
  if (veff <= 0.0) return {};
  return {kp_ * w_um_ * std::pow(veff, alpha_), vdsat_frac_ * veff};
}

Ampere Mosfet::current(const Drive& d, Volt vds) {
  double vds_v = vds.si();
  if (vds_v <= 0.0) return Ampere(0.0);
  if (vds_v > 1.5) vds_v = 1.5;  // clamp far beyond any operating supply
  if (vds_v >= d.vdsat) return Ampere(d.isat);
  const double xd = vds_v / d.vdsat;
  return Ampere(d.isat * (2.0 - xd) * xd);
}

Volt Mosfet::mismatch_sigma(double w_um, const ProcessParams& p) {
  BPIM_REQUIRE(w_um > 0.0, "device width must be positive");
  return Volt(p.avt_v_um / std::sqrt(w_um * p.lmin_um));
}

}  // namespace bpim::circuit
