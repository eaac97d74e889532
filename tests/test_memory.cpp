// Bank / 128 KB memory aggregation.

#include <gtest/gtest.h>

#include "macro/memory.hpp"

namespace bpim::macro {
namespace {


TEST(Memory, DefaultConfigIs128KB) {
  ImcMemory mem;
  EXPECT_EQ(mem.bank_count(), 4u);          // Table 3: 4 banks
  EXPECT_EQ(mem.macro_count(), 64u);        // 16 macros per bank
  EXPECT_EQ(mem.capacity_bytes(), 128u * 1024u);
}

TEST(Memory, FlatMacroIndexing) {
  ImcMemory mem;
  // Distinct objects across the flat index.
  mem.macro(0).poke_word(0, 0, 8, 1);
  mem.macro(17).poke_word(0, 0, 8, 2);
  EXPECT_EQ(mem.macro(0).peek_word(0, 0, 8), 1u);
  EXPECT_EQ(mem.macro(17).peek_word(0, 0, 8), 2u);
  EXPECT_THROW((void)mem.macro(64), std::invalid_argument);
}

TEST(Memory, BankBoundsChecked) {
  ImcMemory mem;
  EXPECT_THROW((void)mem.bank(4), std::invalid_argument);
  EXPECT_THROW((void)mem.bank(0).macro(16), std::invalid_argument);
}

TEST(Memory, ConfigValidation) {
  MemoryConfig cfg;
  cfg.banks = 0;
  EXPECT_THROW(ImcMemory{cfg}, std::invalid_argument);
  cfg.banks = 1;
  cfg.macros_per_bank = 0;
  EXPECT_THROW(ImcMemory{cfg}, std::invalid_argument);
}

TEST(Memory, SmallCustomConfig) {
  MemoryConfig cfg;
  cfg.banks = 2;
  cfg.macros_per_bank = 2;
  ImcMemory mem(cfg);
  EXPECT_EQ(mem.macro_count(), 4u);
  EXPECT_EQ(mem.capacity_bytes(), 4u * 2048u);
}

}  // namespace
}  // namespace bpim::macro
