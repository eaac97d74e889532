#pragma once
// Component-level energy model, calibrated against the paper's Table 2.
//
// Every micro-action of the macro has a per-bit price at the 0.9 V reference
// point; an operation's energy is the sum of the components it exercises.
// The same price list is used twice:
//   * closed forms here (add/sub/mult/...) reproduce Table 2, and
//   * macro::CostModel prices every executed instruction from the identical
//     per-component prices, so functional-simulation energy and the closed
//     forms agree by construction (asserted in tests).
//
// Voltage scaling is quadratic in VDD (dynamic CV^2); the paper's 0.6 V
// TOPS/W quotes (ADD 8.09, MULT 0.68) are hit within a few percent.
//
// The BL separator enters in two places (paper Sec. 3.1 / Table 2):
//   * write-back onto the dummy rows drives only the short separated BL
//     segment (wb_near) instead of the full-height BL (wb_full);
//   * iterative MULT add-and-shift cycles also *compute* on the short
//     segment (cmp_near vs cmp_main).

#include <cstddef>

#include "common/units.hpp"

namespace bpim::energy {

/// Micro-actions the macro can spend energy on (per bit unless noted).
enum class Component {
  DualWlComputeMain,  ///< dual-WL BL compute on the main array segment
  DualWlComputeNear,  ///< dual-WL BL compute on the separated dummy segment
  SingleWlRead,       ///< single-WL read (NOT/COPY/SHIFT sources)
  FaLogic,            ///< FA-Logics + output mux switching
  Inverter,           ///< Y-path inverter (NOT)
  WriteBackNear,      ///< write-back onto the separated dummy segment
  WriteBackFull,      ///< write-back driving the full-height BL
  FlipFlop,           ///< multiplier / propagation flip-flop update
};

/// Number of Component values (the size of a per-component table).
inline constexpr std::size_t kComponentCount = static_cast<std::size_t>(Component::FlipFlop) + 1;

enum class SeparatorMode { Enabled, Disabled };

/// Price list at the 0.9 V calibration point (femtojoules per bit).
/// Defaults are the Table 2 calibration; see energy/calibration.cpp.
struct EnergyParams {
  double cmp_main_fj = 30.00;
  double cmp_near_fj = 15.60;
  double rd_single_fj = 31.25;
  double fa_fj = 4.35;
  double inv_fj = 1.00;
  double wb_near_fj = 1.60;
  double wb_full_fj = 9.90;
  double ff_fj = 1.50;

  /// Average write-back switching activity of MULT partial-product rows.
  double mult_wb_activity = 0.66;
  /// Activity of the all-zeros initialisation write.
  double zero_init_activity = 0.30;

  Volt v_ref{0.9};
};

class EnergyModel {
 public:
  explicit EnergyModel(EnergyParams params = {}) : p_(params) {}

  /// Dynamic-energy scale factor (V/Vref)^2.
  [[nodiscard]] double voltage_scale(Volt vdd) const;

  /// Price of one bit of a component at the given supply.
  [[nodiscard]] Joule price(Component c, Volt vdd) const;

  // ---- closed forms per word-level operation (operand width `bits`) ----

  /// Dual-WL logic op (AND/OR/XOR/... ) driven out on the Y-path, no WB.
  [[nodiscard]] Joule logic_op(unsigned bits, Volt vdd) const;
  /// 1-cycle bit-parallel addition (Table 2 convention: result driven out).
  [[nodiscard]] Joule add(unsigned bits, Volt vdd) const;
  /// 1-cycle add-and-shift, written back to a dummy row.
  [[nodiscard]] Joule add_shift(unsigned bits, Volt vdd, SeparatorMode sep) const;
  /// NOT / COPY / SHIFT: single-WL read, written back to a dummy row.
  [[nodiscard]] Joule single_wl_writeback(unsigned bits, Volt vdd, SeparatorMode sep) const;
  /// 2-cycle subtraction (NOT + ADD with carry-in).
  [[nodiscard]] Joule sub(unsigned bits, Volt vdd, SeparatorMode sep) const;
  /// (N+2)-cycle bit-parallel multiplication on a 2N-bit precision unit.
  [[nodiscard]] Joule mult(unsigned bits, Volt vdd, SeparatorMode sep) const;

  /// Tera-operations per second per watt: 1 op = one `bits`-wide word op.
  [[nodiscard]] double tops_per_watt(Joule energy_per_op) const;

  [[nodiscard]] const EnergyParams& params() const { return p_; }

 private:
  EnergyParams p_;
};

}  // namespace bpim::energy
