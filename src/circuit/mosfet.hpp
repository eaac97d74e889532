#pragma once
// Alpha-power-law MOSFET (Sakurai-Newton) with a subthreshold tail.
//
// Good enough for the three questions the paper's circuit figures ask:
//   * how fast does a cell/booster discharge a bit line (Fig 2, 7a),
//   * how does that delay move across corners and supply (Fig 7a, 8),
//   * how does Vth mismatch spread the delay distribution (Fig 2).
//
// I(Vgs, Vds) =
//   subthreshold:  Ioff * W * 10^((Vgs-Vth)/S)            , Vgs <= Vth
//   saturation:    k * W * (Vgs-Vth)^alpha                , Vds >= Vdsat
//   triode:        Isat * (2 - x) * x, x = Vds/Vdsat      , Vds <  Vdsat
//
// Voltages are device-local magnitudes: pass Vgs/Vds as positive overdrive
// for both NMOS and PMOS (callers flip signs for PMOS).
//
// Everything transcendental (the EKV log1p/exp and the alpha power) depends
// on Vgs only. `drive(vgs)` computes that part once; `current(drive, vds)`
// adds the cheap Vds clamp and saturation/triode step. Callers whose gate
// voltage holds still across many evaluations (a VDD-gated pull-down, a
// bisection over a drain node, a flat word line) keep the Drive and pay only
// the second step. `current(vgs, vds)` is exactly their composition.

#include "circuit/process.hpp"
#include "common/units.hpp"

namespace bpim::circuit {

class Mosfet {
 public:
  /// A device of width `w_um` under a given operating point. `vth_delta`
  /// injects Monte-Carlo mismatch (added to the effective threshold).
  Mosfet(DeviceKind kind, VtFlavor flavor, double w_um, const OperatingPoint& op,
         const ProcessParams& p = default_process(), Volt vth_delta = Volt(0.0));

  /// The gate-voltage-dependent part of the current. A device below its
  /// subthreshold floor has zero `isat` and `vdsat`, which `current` turns
  /// into zero current at every Vds.
  struct Drive {
    double isat = 0.0;   ///< saturation current (A)
    double vdsat = 0.0;  ///< saturation drain voltage (V)
  };
  [[nodiscard]] Drive drive(Volt vgs) const;

  /// Drain current magnitude for a gate drive and a drain-source magnitude.
  [[nodiscard]] static Ampere current(const Drive& d, Volt vds);

  /// Drain current magnitude for gate-source / drain-source magnitudes.
  [[nodiscard]] Ampere current(Volt vgs, Volt vds) const { return current(drive(vgs), vds); }

  /// Effective threshold after flavor, corner, temperature and mismatch.
  [[nodiscard]] Volt vth() const { return vth_; }
  [[nodiscard]] double width_um() const { return w_um_; }
  [[nodiscard]] DeviceKind kind() const { return kind_; }

  /// Pelgrom sigma for this device geometry.
  [[nodiscard]] static Volt mismatch_sigma(double w_um, const ProcessParams& p = default_process());

 private:
  DeviceKind kind_;
  double w_um_;
  Volt vth_;
  double kp_;        // A/um at 1 V overdrive, corner/temperature adjusted
  double alpha_;
  double vdsat_frac_;
  double subvt_swing_;  // V/decade
  double ioff_;         // A/um
};

}  // namespace bpim::circuit
