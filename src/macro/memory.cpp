#include "macro/memory.hpp"

#include "common/require.hpp"

namespace bpim::macro {

Bank::Bank(const MacroConfig& macro_cfg, std::size_t macro_count, std::uint64_t seed_base) {
  BPIM_REQUIRE(macro_count > 0, "bank needs at least one macro");
  macros_.reserve(macro_count);
  for (std::size_t i = 0; i < macro_count; ++i) {
    MacroConfig c = macro_cfg;
    c.seed = seed_base + i;  // decorrelate disturb injection across macros
    macros_.push_back(std::make_unique<ImcMacro>(c));
  }
}

ImcMacro& Bank::macro(std::size_t i) {
  BPIM_REQUIRE(i < macros_.size(), "macro index out of range");
  return *macros_[i];
}

const ImcMacro& Bank::macro(std::size_t i) const {
  BPIM_REQUIRE(i < macros_.size(), "macro index out of range");
  return *macros_[i];
}

ImcMemory::ImcMemory(const MemoryConfig& cfg) : cfg_(cfg) {
  BPIM_REQUIRE(cfg.banks > 0, "memory needs at least one bank");
  banks_.reserve(cfg.banks);
  for (std::size_t b = 0; b < cfg.banks; ++b)
    banks_.push_back(std::make_unique<Bank>(
        cfg.macro, cfg.macros_per_bank, cfg.macro.seed + cfg.seed_offset + b * 1000));
}

Bank& ImcMemory::bank(std::size_t b) {
  BPIM_REQUIRE(b < banks_.size(), "bank index out of range");
  return *banks_[b];
}

const Bank& ImcMemory::bank(std::size_t b) const {
  BPIM_REQUIRE(b < banks_.size(), "bank index out of range");
  return *banks_[b];
}

ImcMacro& ImcMemory::macro(std::size_t flat) {
  return bank(flat / cfg_.macros_per_bank).macro(flat % cfg_.macros_per_bank);
}

std::size_t ImcMemory::macro_count() const { return cfg_.banks * cfg_.macros_per_bank; }

std::size_t ImcMemory::capacity_bytes() const {
  const auto& g = cfg_.macro.geometry;
  return macro_count() * g.rows * g.cols / 8;
}

}  // namespace bpim::macro
