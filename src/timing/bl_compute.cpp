#include "timing/bl_compute.hpp"

#include <cmath>
#include <limits>

#include "circuit/mosfet.hpp"
#include "circuit/transient.hpp"
#include "common/require.hpp"

namespace bpim::timing {

using circuit::DeviceKind;
using circuit::Mosfet;
using circuit::VtFlavor;
using circuit::Waveform;

const char* to_string(BlScheme s) {
  return s == BlScheme::ShortWlBoost ? "Short-WL + BL Boost" : "WLUD";
}

BlComputeModel::BlComputeModel(BlScheme scheme, const BlComputeConfig& cfg,
                               const circuit::OperatingPoint& op)
    : scheme_(scheme), cfg_(cfg), op_(op) {
  BPIM_REQUIRE(cfg.rows > 0, "bit line must have at least one cell");
}

Farad BlComputeModel::bl_capacitance() const {
  return Farad(cfg_.c_bl_per_cell.si() * static_cast<double>(cfg_.rows) + cfg_.c_bl_fixed.si());
}

Second BlComputeModel::compute_delay(const cell::CellMismatch& cell_mm, Volt d_p0, Volt d_n1,
                                     Volt sa_offset, Second pulse_jitter) const {
  const double vdd = op_.vdd.si();
  const cell::ReadPath cell(cfg_.cell_geometry, op_, cell_mm);

  // Word-line waveform.
  Waveform wl;
  if (scheme_ == BlScheme::ShortWlBoost) {
    const double width = std::max(20e-12, cfg_.wl_pulse.si() + pulse_jitter.si());
    wl = Waveform::pulse(cfg_.wl_t0, Second(width), op_.vdd, cfg_.wl_rise, cfg_.wl_fall);
  } else {
    // WLUD: reduced level held for the whole evaluation window.
    wl = Waveform::pulse(cfg_.wl_t0, cfg_.t_end, cfg_.wlud_level, cfg_.wl_rise, cfg_.wl_fall);
  }

  // Boost devices (only used by ShortWlBoost). P0 carries the droop-sensor
  // bias as an effective threshold reduction, and the replica bias cancels
  // most of the corner shift for both booster devices (see config).
  const auto& proc = circuit::default_process();
  const double comp_p = -cfg_.boost_corner_tracking *
                        circuit::corner_sign(op_.corner, DeviceKind::Pmos) *
                        proc.corner_vth_shift.si();
  const double comp_n = -cfg_.boost_corner_tracking *
                        circuit::corner_sign(op_.corner, DeviceKind::Nmos) *
                        proc.corner_vth_shift.si();
  const Mosfet p0(DeviceKind::Pmos, VtFlavor::LowVt, cfg_.w_p0_um, op_, proc,
                  Volt(d_p0.si() - cfg_.p0_sense_vt_drop.si() + comp_p));
  const Mosfet n1(DeviceKind::Nmos, VtFlavor::LowVt, cfg_.w_n1_um, op_, proc,
                  Volt(d_n1.si() + comp_n));

  const double c_bl = bl_capacitance().si();
  const double c_mir = cfg_.c_mirror.si();
  const bool boosted = scheme_ == BlScheme::ShortWlBoost;

  // Sense threshold, shifted by SA offset.
  const double v_sense = cfg_.sa_threshold_frac * vdd + sa_offset.si();

  // State: v[0] = bit line, v[1] = booster mirror node.
  double v_bl = vdd;
  double v_mir = 0.0;
  const double h = cfg_.dt.si();
  const double t_end = cfg_.t_end.si();

  // The access drive changes only while the WL ramps; on its flat parts
  // (the WLUD level, or 0 V after the boost pulse) the last one is reused.
  double drive_wl = std::numeric_limits<double>::quiet_NaN();
  Mosfet::Drive access{};

  auto derivs = [&](double t, double bl, double mir, double& d_bl, double& d_mir) {
    const Volt v_wl = wl.at(Second(t));
    if (v_wl.si() != drive_wl) {
      drive_wl = v_wl.si();
      access = cell.access().drive(v_wl);
    }
    double i_dn = cell.current(access, Volt(bl)).si();
    if (boosted) {
      // P0 charges the mirror node as the BL droops below VDD.
      const double i_p0 = p0.current(Volt(vdd - bl), Volt(vdd - mir)).si();
      // N1 (gated by the mirror) and N0 (enable) pull the BL down.
      i_dn += cfg_.n_stack_factor * n1.current(Volt(mir), Volt(bl)).si();
      d_mir = (mir < vdd) ? i_p0 / c_mir : 0.0;
    } else {
      d_mir = 0.0;
    }
    d_bl = (bl > 0.0) ? -i_dn / c_bl : 0.0;
  };

  double prev_t = 0.0;
  double prev_bl = v_bl;
  for (double t = 0.0; t < t_end; t += h) {
    double d_bl1 = 0.0, d_mir1 = 0.0, d_bl2 = 0.0, d_mir2 = 0.0;
    derivs(t, v_bl, v_mir, d_bl1, d_mir1);
    const double bl_p = v_bl + h * d_bl1;
    const double mir_p = v_mir + h * d_mir1;
    derivs(t + h, bl_p, mir_p, d_bl2, d_mir2);
    v_bl += 0.5 * h * (d_bl1 + d_bl2);
    v_mir += 0.5 * h * (d_mir1 + d_mir2);
    if (v_bl < 0.0) v_bl = 0.0;
    if (v_mir > vdd) v_mir = vdd;

    if (v_bl < v_sense) {
      // Interpolate the crossing, reference to WL activation start.
      const double dv = v_bl - prev_bl;
      const double frac = dv != 0.0 ? (v_sense - prev_bl) / dv : 1.0;
      const double t_cross = prev_t + frac * (t + h - prev_t);
      const double delay = t_cross - cfg_.wl_t0.si() + cfg_.sa_resolve.si();
      return Second(std::max(delay, 0.0));
    }
    prev_t = t + h;
    prev_bl = v_bl;
  }
  return cfg_.t_end;  // swing never developed
}

Second BlComputeModel::nominal_delay() const {
  return compute_delay(cell::CellMismatch{}, Volt(0.0), Volt(0.0), Volt(0.0), Second(0.0));
}

SampleSet bl_delay_distribution(BlScheme scheme, const BlComputeConfig& cfg,
                                const circuit::OperatingPoint& op, std::size_t trials,
                                std::uint64_t seed) {
  const BlComputeModel model(scheme, cfg, op);
  const Volt s_p0 = Mosfet::mismatch_sigma(cfg.w_p0_um);
  const Volt s_n1 = Mosfet::mismatch_sigma(cfg.w_n1_um);
  return circuit::monte_carlo_metric(
      [&](Rng& rng) {
        const auto mm = cell::CellMismatch::sample(rng, cfg.cell_geometry);
        const Volt d_p0(rng.normal(0.0, s_p0.si()));
        const Volt d_n1(rng.normal(0.0, s_n1.si()));
        const Volt sa_off(rng.normal(0.0, cfg.sa_offset_sigma.si()));
        const Second jitter(rng.normal(0.0, cfg.wl_jitter_sigma.si()));
        return model.compute_delay(mm, d_p0, d_n1, sa_off, jitter).si();
      },
      trials, seed);
}

}  // namespace bpim::timing
