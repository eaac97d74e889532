#include "timing/adm.hpp"

#include <algorithm>
#include <cmath>

#include "circuit/mosfet.hpp"

namespace bpim::timing {

using circuit::DeviceKind;
using circuit::FailureRateResult;
using circuit::Mosfet;
using circuit::VtFlavor;

FailureRateResult wlud_disturb_rate(const BlComputeConfig& cfg, const circuit::OperatingPoint& op,
                                    Volt wlud_level, std::size_t trials, std::uint64_t seed) {
  // Quasi-DC: by the end of the (nanosecond-scale) WLUD evaluation the BL has
  // collapsed to near ground; the victim '1' cell sees that level for much
  // longer than any latch regeneration time.
  const Volt v_bl_low(0.04);
  const Second stress(2e-9);
  return circuit::monte_carlo_failure(
      [&](Rng& rng) {
        const auto mm = cell::CellMismatch::sample(rng, cfg.cell_geometry);
        const cell::Sram6tCell victim(cfg.cell_geometry, op, mm);
        return victim.flips_with_low_bl(wlud_level, v_bl_low, stress);
      },
      trials, seed);
}

FailureRateResult shortwl_disturb_rate(const BlComputeConfig& cfg,
                                       const circuit::OperatingPoint& op, std::size_t trials,
                                       std::uint64_t seed) {
  const double vdd = op.vdd.si();
  const Volt s_p0 = Mosfet::mismatch_sigma(cfg.w_p0_um);
  const double c_bl =
      cfg.c_bl_per_cell.si() * static_cast<double>(cfg.rows) + cfg.c_bl_fixed.si();

  return circuit::monte_carlo_failure(
      [&](Rng& rng) {
        // Aggressor ('0' cell) discharges the BL during the pulse; its own
        // mismatch sets the droop. Victim is the cell storing '1'.
        const auto mm_aggr = cell::CellMismatch::sample(rng, cfg.cell_geometry);
        const auto mm_vict = cell::CellMismatch::sample(rng, cfg.cell_geometry);
        const cell::ReadPath aggressor(cfg.cell_geometry, op, mm_aggr);
        const cell::Sram6tCell victim(cfg.cell_geometry, op, mm_vict);
        const Volt d_p0(rng.normal(0.0, s_p0.si()) - cfg.p0_sense_vt_drop.si());
        const Mosfet p0(DeviceKind::Pmos, VtFlavor::LowVt, cfg.w_p0_um, op,
                        circuit::default_process(), d_p0);

        const double pulse =
            std::max(20e-12, cfg.wl_pulse.si() + rng.normal(0.0, cfg.wl_jitter_sigma.si()));

        // Droop accumulated while the WL is (approximately) at full swing.
        const double i_cell = aggressor.current(op.vdd, op.vdd).si();
        double droop = i_cell * (pulse + 0.5 * cfg.wl_rise.si()) / c_bl;

        // Early boost contribution during the pulse: P0's mirror charge rate
        // translated into an equivalent extra droop (fast-P0 tail hazard).
        const double i_p0 = p0.current(Volt(droop), Volt(vdd)).si();
        const double mirror_rise = i_p0 * pulse / cfg.c_mirror.si();
        if (mirror_rise > 0.3 * vdd) {
          // Boost triggered before WL off: BL collapse overlaps the pulse.
          const Mosfet n1(DeviceKind::Nmos, VtFlavor::LowVt, cfg.w_n1_um, op);
          const double i_boost =
              cfg.n_stack_factor *
              n1.current(Volt(std::min(mirror_rise, vdd)), Volt(vdd - droop)).si();
          droop += i_boost * 0.5 * pulse / c_bl;
        }
        droop = std::min(droop, vdd);

        // Walk the WL fall ramp; the BL keeps falling while the victim's
        // access device is still on. Check the sag criterion at each step.
        constexpr int kSteps = 4;
        for (int k = 0; k < kSteps; ++k) {
          const double frac = (k + 0.5) / kSteps;
          const double v_wl = vdd * (1.0 - frac);
          const double t_in_step = cfg.wl_fall.si() / kSteps;
          const double v_bl = std::max(0.0, vdd - droop - 0.15 * vdd * frac);
          if (victim.flips_with_low_bl(Volt(v_wl), Volt(v_bl), Second(t_in_step * kSteps)))
            return true;
        }
        return false;
      },
      trials, seed);
}

Volt calibrate_wlud_level(const BlComputeConfig& cfg, const circuit::OperatingPoint& op,
                          double target, std::size_t trials_per_probe, std::uint64_t seed) {
  // Failure rate increases monotonically with the WL level.
  double lo = 0.40, hi = op.vdd.si();
  for (int i = 0; i < 12; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double rate =
        wlud_disturb_rate(cfg, op, Volt(mid), trials_per_probe, seed + static_cast<unsigned>(i))
            .rate();
    (rate < target ? lo : hi) = mid;
  }
  return Volt(0.5 * (lo + hi));
}

}  // namespace bpim::timing
