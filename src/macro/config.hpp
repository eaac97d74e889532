#pragma once
// Build-time configuration of one IMC macro: geometry, supply, separator
// mode, energy calibration, WL scheme, disturb injection and the frequency
// model. Shared by the executing macro (macro/imc_macro) and the
// instruction-driven cost model (macro/cost_model), which the macro owns.

#include <cstdint>

#include "array/sram_array.hpp"
#include "common/units.hpp"
#include "energy/energy_model.hpp"
#include "macro/isa.hpp"
#include "timing/freq_model.hpp"

namespace bpim::macro {

struct MacroConfig {
  array::ArrayGeometry geometry{};
  Volt vdd{0.9};
  energy::SeparatorMode separator = energy::SeparatorMode::Enabled;
  energy::EnergyParams energy_params{};
  WlScheme wl_scheme = WlScheme::ShortPulseBoost;
  /// When true, dual-WL computes under an unsafe WL scheme stochastically
  /// flip victim cells (see DisturbModel); the proposed scheme is immune.
  bool inject_disturb = false;
  std::uint64_t seed = 0x6B1Dull;
  timing::FreqModelConfig freq{};
};

}  // namespace bpim::macro
