#pragma once
// Behavioural 6T SRAM bit cell.
//
// Models the two cell-level questions the paper's evaluation hinges on:
//
//  1. Read/compute current -- how fast does one cell discharge a bit line,
//     as a function of the word-line voltage (full swing vs WLUD). This sets
//     the BL computation delay (Fig 2, Fig 7a).
//
//  2. Read disturb -- whether the stored value survives the access. Two
//     mechanisms are modelled:
//       (a) classic bump: the internal '0' node is pulled up through the
//           access device while the BL is still high;
//       (b) the dual-WL mechanism of the paper's Fig 1: once the shared BL
//           has been discharged by the *other* cell, the '1' node of this
//           cell is pulled *down* through its access device toward the low
//           BL. WLUD weakens the access device to survive this; the proposed
//           scheme instead cuts the WL before the BL collapses.
//
// All device operating points and Monte-Carlo mismatch deltas are explicit,
// so the same cell serves nominal timing, corner sweeps and MC runs.

#include "circuit/mosfet.hpp"
#include "circuit/process.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace bpim::cell {

/// Drawn device widths of the 6T cell (um). Defaults give a ~1.4 read beta
/// ratio, typical of a 28 nm high-density cell scaled for IMC read margin.
struct CellGeometry {
  double w_access_um = 0.14;
  double w_pulldown_um = 0.20;
  /// Sized so the WLUD baseline at 0.55 V sits at the paper's iso-ADM
  /// failure target of 2.5e-5 (measured 2.25e-5 over 2M MC samples).
  double w_pullup_um = 0.11;
};

/// Per-instance threshold mismatch of the five devices that matter for one
/// read side (the second pull-up/pull-down pair enters via the trip voltage).
struct CellMismatch {
  Volt d_access{0.0};
  Volt d_pulldown{0.0};
  Volt d_pullup{0.0};
  Volt d_trip{0.0};  ///< lumped mismatch of the opposite inverter's trip point

  /// Draw a Pelgrom-distributed sample for the given geometry.
  static CellMismatch sample(Rng& rng, const CellGeometry& g,
                             const circuit::ProcessParams& p = circuit::default_process());
};

/// The discharge path of a cell storing '0': the access device in series
/// with the pull-down, whose gate sits at VDD. A bit-line transient or a
/// disturb aggressor needs only this, not the whole cell. The pull-down's
/// drive is evaluated once here; a caller whose word line holds still can
/// hold the access drive as well.
class ReadPath {
 public:
  ReadPath(const CellGeometry& g, const circuit::OperatingPoint& op, const CellMismatch& mm = {},
           const circuit::ProcessParams& p = circuit::default_process());

  /// Discharge current injected into a high bit line at `v_bl` for an access
  /// gate drive of `access().drive(v_wl)`. Series access + pull-down,
  /// combined with the conductance-series rule.
  [[nodiscard]] Ampere current(const circuit::Mosfet::Drive& access, Volt v_bl) const;
  [[nodiscard]] Ampere current(Volt v_wl, Volt v_bl) const {
    return current(access_.drive(v_wl), v_bl);
  }

  [[nodiscard]] const circuit::Mosfet& access() const { return access_; }
  [[nodiscard]] const circuit::Mosfet& pulldown() const { return pulldown_; }
  /// The pull-down's drive with its gate at VDD.
  [[nodiscard]] const circuit::Mosfet::Drive& pulldown_on() const { return pulldown_on_; }

 private:
  circuit::Mosfet access_;
  circuit::Mosfet pulldown_;
  circuit::Mosfet::Drive pulldown_on_;
};

class Sram6tCell {
 public:
  Sram6tCell(const CellGeometry& g, const circuit::OperatingPoint& op,
             const CellMismatch& mm = {},
             const circuit::ProcessParams& p = circuit::default_process());

  /// Discharge current injected into a high bit line when this cell stores
  /// '0' and its word line sits at `v_wl` with the BL at `v_bl`.
  [[nodiscard]] Ampere read_current(Volt v_wl, Volt v_bl) const {
    return read_.current(v_wl, v_bl);
  }

  /// Mechanism (a): equilibrium voltage of the internal '0' node while the
  /// BL is held at `v_bl` (high) and the WL at `v_wl`.
  [[nodiscard]] Volt bump_voltage(Volt v_wl, Volt v_bl) const;

  /// Mechanism (b): equilibrium voltage of the internal '1' node while the
  /// shared BL has been discharged to `v_bl` (low) and the WL is at `v_wl`.
  [[nodiscard]] Volt sag_voltage(Volt v_wl, Volt v_bl) const;

  /// Trip voltage of the opposite inverter: if a disturbed node crosses it
  /// (upward for the '0' node, downward for the '1' node) the latch
  /// regenerates to the wrong state.
  [[nodiscard]] Volt trip_low() const;   ///< '0' node flips if bumped above this
  [[nodiscard]] Volt trip_high() const;  ///< '1' node flips if sagged below this

  /// Time the disturbance must persist for the latch to regenerate. Diverges
  /// as the disturbed level approaches the trip point.
  [[nodiscard]] Second regeneration_time(Volt disturbed, Volt trip) const;

  /// True if holding WL at `v_wl` for `duration` with a *low* BL at `v_bl`
  /// flips a stored '1' (the paper's dual-WL compute disturb).
  [[nodiscard]] bool flips_with_low_bl(Volt v_wl, Volt v_bl, Second duration) const;

  /// True if holding WL at `v_wl` for `duration` with a *high* BL flips a
  /// stored '0' (classic single-ended read bump).
  [[nodiscard]] bool flips_with_high_bl(Volt v_wl, Volt v_bl, Second duration) const;

  [[nodiscard]] const circuit::OperatingPoint& op() const { return op_; }

 private:
  /// The trip point, bisected on demand. If `level` is at or above it, the
  /// bisection may stop early and return an upper bound of it that is still
  /// at or below `level`; otherwise the result is exact.
  [[nodiscard]] Volt trip_unless_below(double level) const;

  circuit::OperatingPoint op_;
  ReadPath read_;
  circuit::Mosfet pullup_;
  circuit::Mosfet::Drive pullup_on_;  ///< pull-up drive, gate at VDD
  Volt d_trip_;
};

}  // namespace bpim::cell
