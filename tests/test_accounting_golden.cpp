// Bit-exact pins of the modeled account.
//
// Two layers are pinned, both as exact integers and exact double bit
// patterns (never NEAR):
//  * CostModel::instruction_cost -- every op kind at 2/4/8/16/32 bits, both
//    separator modes, two supply voltages; MULT full, pipelined and
//    D1-staged at every add-shift depth, and skipped.
//  * The engine's RunStats / BatchStats -- cycles, fused and adaptive
//    savings, energy and an output digest -- for seeded run_batch,
//    run_forward and run_chain requests, adaptive policy off and on.
// Every constant was captured from the execution model as it stood when
// this file was written; a refactor of the accounting must leave them all
// standing. On a mismatch each test prints the case's actual line in table
// format.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "engine/execution_engine.hpp"
#include "macro/cost_model.hpp"
#include "macro/program.hpp"

namespace bpim {
namespace {

using array::RowRef;
using energy::SeparatorMode;
using macro::Instruction;
using macro::InstructionCost;
using macro::MultPlan;
using macro::Op;

std::uint64_t bits_of(Joule e) { return std::bit_cast<std::uint64_t>(e.si()); }

std::uint64_t fnv(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

// ---- CostModel ---------------------------------------------------------------

constexpr unsigned kBits[] = {2, 4, 8, 16, 32};
constexpr double kVdds[] = {0.9, 0.6};
constexpr SeparatorMode kSeps[] = {SeparatorMode::Enabled, SeparatorMode::Disabled};

macro::MacroConfig config(SeparatorMode sep, double vdd) {
  macro::MacroConfig cfg;
  cfg.separator = sep;
  cfg.vdd = Volt(vdd);
  return cfg;
}

Instruction inst(Op op, RowRef a, RowRef b, unsigned bits,
                 std::optional<RowRef> dest = std::nullopt) {
  Instruction i;
  i.op = op;
  i.logic_fn = periph::LogicFn::Xor;
  i.a = a;
  i.b = b;
  i.bits = bits;
  i.dest = dest;
  return i;
}

constexpr std::size_t kOpCases = 13;
constexpr const char* kOpNames[kOpCases] = {
    "LOGIC main",  "LOGIC dummy", "NOT->D1", "COPY->R9",   "SHIFT->D0", "ADD",
    "ADD->D2",     "ADD->R9",     "ADDSH->D2", "SUB",      "MULT",      "MULT piped",
    "MULT staged"};

/// Cycles and energy of every non-adaptive op case at one config/precision,
/// in kOpNames order. The MULT links are priced after a MULT predecessor.
std::array<InstructionCost, kOpCases> price_ops(const macro::CostModel& cost, unsigned bits) {
  const RowRef r0 = RowRef::main(0), r1 = RowRef::main(1), r9 = RowRef::main(9);
  const RowRef d0 = RowRef::dummy(0), d1 = RowRef::dummy(1), d2 = RowRef::dummy(2);
  const Instruction head = inst(Op::Mult, r0, r1, bits);
  const Instruction piped = inst(Op::Mult, RowRef::main(2), RowRef::main(3), bits);
  const Instruction staged = inst(Op::Mult, r0, RowRef::main(3), bits);
  return {cost.instruction_cost(inst(Op::And, r0, r1, bits)),
          cost.instruction_cost(inst(Op::And, d0, d1, bits)),
          cost.instruction_cost(inst(Op::Not, r0, r0, bits, d1)),
          cost.instruction_cost(inst(Op::Copy, r0, r0, bits, r9)),
          cost.instruction_cost(inst(Op::Shift, r0, r0, bits, d0)),
          cost.instruction_cost(inst(Op::Add, r0, r1, bits)),
          cost.instruction_cost(inst(Op::Add, r0, r1, bits, d2)),
          cost.instruction_cost(inst(Op::Add, r0, r1, bits, r9)),
          cost.instruction_cost(inst(Op::AddShift, r0, r1, bits, d2)),
          cost.instruction_cost(inst(Op::Sub, r0, r1, bits)),
          cost.instruction_cost(head),
          cost.instruction_cost(piped, &head),
          cost.instruction_cost(staged, &head)};
}

struct OpPrices {
  SeparatorMode sep;
  double vdd;
  unsigned bits;
  std::array<unsigned, kOpCases> cycles;
  std::array<std::uint64_t, kOpCases> energy;  ///< Joule bit patterns
};

const char* sep_name(SeparatorMode s) {
  return s == SeparatorMode::Enabled ? "SeparatorMode::Enabled" : "SeparatorMode::Disabled";
}

// clang-format off
const std::vector<OpPrices> kOpPrices = {
    {SeparatorMode::Enabled, 0.9, 2,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 3, 2},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D930E4C92E3E910ull,
      0x3D97BA7486818364ull, 0x3D930E4C92E3E910ull, 0x3D93565B515F8669ull,
      0x3D943CF0E61E4AB7ull, 0x3D98E918D9BBE50Bull, 0x3D94A90703D7B6BCull,
      0x3DA33253F221B7BCull, 0x3DA56767501722B9ull, 0x3DA56767501722B9ull,
      0x3DA0C7DB8A9BF721ull}},  // MULT 0x1.56767501722b9p-37 J
    {SeparatorMode::Enabled, 0.9, 4,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 6, 5, 4},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D930E4C92E3E910ull,
      0x3D97BA7486818364ull, 0x3D930E4C92E3E910ull, 0x3D93565B515F8669ull,
      0x3D943CF0E61E4AB7ull, 0x3D98E918D9BBE50Bull, 0x3D9472FBF4FB00B9ull,
      0x3DA33253F221B7BCull, 0x3DB09D57F662648Aull, 0x3DB09D57F662648Aull,
      0x3DAC9B2427499D7Cull}},  // MULT 0x1.09d57f662648ap-36 J
    {SeparatorMode::Enabled, 0.9, 8,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 10, 9, 8},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D930E4C92E3E910ull,
      0x3D97BA7486818364ull, 0x3D930E4C92E3E910ull, 0x3D93565B515F8669ull,
      0x3D943CF0E61E4AB7ull, 0x3D98E918D9BBE50Bull, 0x3D9457F66D8CA5B8ull,
      0x3DA33253F221B7BCull, 0x3DBC70A093100AE5ull, 0x3DBC70A093100AE5ull,
      0x3DBA20DAB0527518ull}},  // MULT 0x1.c70a093100ae5p-36 J
    {SeparatorMode::Enabled, 0.9, 16,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 18, 17, 16},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D930E4C92E3E910ull,
      0x3D97BA7486818364ull, 0x3D930E4C92E3E910ull, 0x3D93565B515F8669ull,
      0x3D943CF0E61E4AB7ull, 0x3D98E918D9BBE50Bull, 0x3D944A73A9D57838ull,
      0x3DA33253F221B7BCull, 0x3DCA0B98E635ABCBull, 0x3DCA0B98E635ABCBull,
      0x3DC8E3B5F4D6E0E5ull}},  // MULT 0x1.a0b98e635abcbp-35 J
    {SeparatorMode::Enabled, 0.9, 32,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 34, 33, 32},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D930E4C92E3E910ull,
      0x3D97BA7486818364ull, 0x3D930E4C92E3E910ull, 0x3D93565B515F8669ull,
      0x3D943CF0E61E4AB7ull, 0x3D98E918D9BBE50Bull, 0x3D9443B247F9E177ull,
      0x3DA33253F221B7BCull, 0x3DD8D9150FC87C38ull, 0x3DD8D9150FC87C38ull,
      0x3DD84523971916C5ull}},  // MULT 0x1.8d9150fc87c38p-34 J
    {SeparatorMode::Enabled, 0.6, 2,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 3, 2},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D80F04410CA9647ull,
      0x3D85178405C874CAull, 0x3D80F04410CA9647ull, 0x3D8130512BE32224ull,
      0x3D81FD47E8FE7B4Dull, 0x3D862487DDFC59D0ull, 0x3D825D5B91A34D18ull,
      0x3D91104A9E56DC35ull, 0x3D930694B8F81EDCull, 0x3D930694B8F81EDCull,
      0x3D8DD51484A37E75ull}},  // MULT 0x1.30694b8f81edcp-38 J
    {SeparatorMode::Enabled, 0.6, 4,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 6, 5, 4},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D80F04410CA9647ull,
      0x3D85178405C874CAull, 0x3D80F04410CA9647ull, 0x3D8130512BE32224ull,
      0x3D81FD47E8FE7B4Dull, 0x3D862487DDFC59D0ull, 0x3D822D51BD50E433ull,
      0x3D91104A9E56DC35ull, 0x3D9D897FEEE7CF29ull, 0x3D9D897FEEE7CF29ull,
      0x3D996D7578416F87ull}},  // MULT 0x1.d897feee7cf29p-38 J
    {SeparatorMode::Enabled, 0.6, 8,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 10, 9, 8},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D80F04410CA9647ull,
      0x3D85178405C874CAull, 0x3D80F04410CA9647ull, 0x3D8130512BE32224ull,
      0x3D81FD47E8FE7B4Dull, 0x3D862487DDFC59D0ull, 0x3D82154CD327AFC0ull,
      0x3D91104A9E56DC35ull, 0x3DA947AB2D6397E4ull, 0x3DA947AB2D6397E4ull,
      0x3DA739A5F2106813ull}},  // MULT 0x1.947ab2d6397e4p-37 J
    {SeparatorMode::Enabled, 0.6, 16,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 18, 17, 16},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D80F04410CA9647ull,
      0x3D85178405C874CAull, 0x3D80F04410CA9647ull, 0x3D8130512BE32224ull,
      0x3D81FD47E8FE7B4Dull, 0x3D862487DDFC59D0ull, 0x3D82094A5E131586ull,
      0x3D91104A9E56DC35ull, 0x3DB726C0CCA17C44ull, 0x3DB726C0CCA17C44ull,
      0x3DB61FBE2EF7E45Bull}},  // MULT 0x1.726c0cca17c44p-36 J
    {SeparatorMode::Enabled, 0.6, 32,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 34, 33, 32},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D80F04410CA9647ull,
      0x3D85178405C874CAull, 0x3D80F04410CA9647ull, 0x3D8130512BE32224ull,
      0x3D81FD47E8FE7B4Dull, 0x3D862487DDFC59D0ull, 0x3D8203492388C86Aull,
      0x3D91104A9E56DC35ull, 0x3DC6164B9C406E74ull, 0x3DC6164B9C406E74ull,
      0x3DC592CA4D6BA27Full}},  // MULT 0x1.6164b9c406e74p-35 J
    {SeparatorMode::Disabled, 0.9, 2,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 3, 2},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D97BA7486818364ull,
      0x3D97BA7486818364ull, 0x3D97BA7486818364ull, 0x3D93565B515F8669ull,
      0x3D98E918D9BBE50Bull, 0x3D98E918D9BBE50Bull, 0x3D99552EF7755110ull,
      0x3DA58867EBF084E6ull, 0x3DAA5B5438B9131Cull, 0x3DAA5B5438B9131Cull,
      0x3DA490BE765680EFull}},  // MULT 0x1.a5b5438b9131cp-37 J
    {SeparatorMode::Disabled, 0.9, 4,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 6, 5, 4},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D97BA7486818364ull,
      0x3D97BA7486818364ull, 0x3D97BA7486818364ull, 0x3D93565B515F8669ull,
      0x3D98E918D9BBE50Bull, 0x3D98E918D9BBE50Bull, 0x3D991F23E8989B0Dull,
      0x3DA58867EBF084E6ull, 0x3DB4A209AE4B3610ull, 0x3DB4A209AE4B3610ull,
      0x3DB1BCBECD19ECF9ull}},  // MULT 0x1.4a209ae4b361p-36 J
    {SeparatorMode::Disabled, 0.9, 8,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 10, 9, 8},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D97BA7486818364ull,
      0x3D97BA7486818364ull, 0x3D97BA7486818364ull, 0x3D93565B515F8669ull,
      0x3D98E918D9BBE50Bull, 0x3D98E918D9BBE50Bull, 0x3D99041E612A400Cull,
      0x3DA58867EBF084E6ull, 0x3DC1C56469144789ull, 0x3DC1C56469144789ull,
      0x3DC052BEF87BA2FEull}},  // MULT 0x1.1c56469144789p-35 J
    {SeparatorMode::Disabled, 0.9, 16,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 18, 17, 16},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D97BA7486818364ull,
      0x3D97BA7486818364ull, 0x3D97BA7486818364ull, 0x3D93565B515F8669ull,
      0x3D98E918D9BBE50Bull, 0x3D98E918D9BBE50Bull, 0x3D98F69B9D73128Cull,
      0x3DA58867EBF084E6ull, 0x3DD05711C678D044ull, 0x3DD05711C678D044ull,
      0x3DCF3B7E1C58FBFEull}},  // MULT 0x1.05711c678d044p-34 J
    {SeparatorMode::Disabled, 0.9, 32,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 34, 33, 32},
     {0x3D93565B515F8669ull, 0x3D8676322D553F56ull, 0x3D97BA7486818364ull,
      0x3D97BA7486818364ull, 0x3D97BA7486818364ull, 0x3D93565B515F8669ull,
      0x3D98E918D9BBE50Bull, 0x3D98E918D9BBE50Bull, 0x3D98EFDA3B977BCBull,
      0x3DA58867EBF084E6ull, 0x3DDF3FD0EA562934ull, 0x3DDF3FD0EA562934ull,
      0x3DDE867E3209D6EFull}},  // MULT 0x1.f3fd0ea562934p-34 J
    {SeparatorMode::Disabled, 0.6, 2,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 3, 2},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D85178405C874CAull,
      0x3D85178405C874CAull, 0x3D85178405C874CAull, 0x3D8130512BE32224ull,
      0x3D862487DDFC59D0ull, 0x3D862487DDFC59D0ull, 0x3D86849B86A12B9Bull,
      0x3D9323EA98D5CB77ull, 0x3D976DA0326B9F35ull, 0x3D976DA0326B9F35ull,
      0x3D9247C5BE85C7F1ull}},  // MULT 0x1.76da0326b9f35p-38 J
    {SeparatorMode::Disabled, 0.6, 4,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 6, 5, 4},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D85178405C874CAull,
      0x3D85178405C874CAull, 0x3D85178405C874CAull, 0x3D8130512BE32224ull,
      0x3D862487DDFC59D0ull, 0x3D862487DDFC59D0ull, 0x3D865491B24EC2B6ull,
      0x3D9323EA98D5CB77ull, 0x3DA257250CB4A1D4ull, 0x3DA257250CB4A1D4ull,
      0x3D9F886FA5836C61ull}},  // MULT 0x1.257250cb4a1d4p-37 J
    {SeparatorMode::Disabled, 0.6, 8,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 10, 9, 8},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D85178405C874CAull,
      0x3D85178405C874CAull, 0x3D85178405C874CAull, 0x3D8130512BE32224ull,
      0x3D862487DDFC59D0ull, 0x3D862487DDFC59D0ull, 0x3D863C8CC8258E43ull,
      0x3D9323EA98D5CB77ull, 0x3DAF97CEF3B24646ull, 0x3DAF97CEF3B24646ull,
      0x3DAD04E1B9BF5AA4ull}},  // MULT 0x1.f97cef3b24646p-37 J
    {SeparatorMode::Disabled, 0.6, 16,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 18, 17, 16},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D85178405C874CAull,
      0x3D85178405C874CAull, 0x3D85178405C874CAull, 0x3D8130512BE32224ull,
      0x3D862487DDFC59D0ull, 0x3D862487DDFC59D0ull, 0x3D86308A5310F409ull,
      0x3D9323EA98D5CB77ull, 0x3DBD0C9160D6C79Eull, 0x3DBD0C9160D6C79Eull,
      0x3DBBC31AC3DD51CCull}},  // MULT 0x1.d0c9160d6c79ep-36 J
    {SeparatorMode::Disabled, 0.6, 32,
     {1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 34, 33, 32},
     {0x3D8130512BE32224ull, 0x3D73F7490BD9FF69ull, 0x3D85178405C874CAull,
      0x3D85178405C874CAull, 0x3D85178405C874CAull, 0x3D8130512BE32224ull,
      0x3D862487DDFC59D0ull, 0x3D862487DDFC59D0ull, 0x3D862A891886A6EDull,
      0x3D9323EA98D5CB77ull, 0x3DCBC6F297690842ull, 0x3DCBC6F297690842ull,
      0x3DCB223748EC4D59ull}},  // MULT 0x1.bc6f297690842p-35 J
};
// clang-format on

TEST(AccountingGolden, InstructionCostOfEveryOpKind) {
  std::size_t row = 0;
  for (const SeparatorMode sep : kSeps) {
    for (const double vdd : kVdds) {
      const macro::CostModel cost(config(sep, vdd));
      for (const unsigned bits : kBits) {
        const auto got = price_ops(cost, bits);
        const bool pinned = row < kOpPrices.size();
        bool same = pinned;
        if (pinned) {
          const OpPrices& want = kOpPrices[row];
          EXPECT_EQ(want.sep, sep);
          EXPECT_EQ(want.vdd, vdd);
          EXPECT_EQ(want.bits, bits);
          for (std::size_t k = 0; k < kOpCases; ++k) {
            EXPECT_EQ(got[k].cycles, want.cycles[k]) << kOpNames[k] << " @" << bits;
            EXPECT_EQ(bits_of(got[k].energy), want.energy[k])
                << kOpNames[k] << " @" << bits << ": got " << got[k].energy.si();
            same = same && got[k].cycles == want.cycles[k] &&
                   bits_of(got[k].energy) == want.energy[k];
          }
        }
        if (!same) {
          std::printf("    {%s, %.1f, %u,\n     {", sep_name(sep), vdd, bits);
          for (std::size_t k = 0; k < kOpCases; ++k)
            std::printf("%s%u", k ? ", " : "", got[k].cycles);
          std::printf("},\n     {");
          for (std::size_t k = 0; k < kOpCases; ++k)
            std::printf("%s0x%016llXull", k == 0 ? "" : (k % 3 == 0 ? ",\n      " : ", "),
                        static_cast<unsigned long long>(bits_of(got[k].energy)));
          std::printf("}},  // MULT %a J\n", got[10].energy.si());
        }
        ++row;
      }
    }
  }
  EXPECT_EQ(row, kOpPrices.size());
}

/// Every MULT plan at one precision: full, pipelined and D1-staged at each
/// depth 0..bits, then skipped (pipelined and not).
std::vector<MultPlan> mult_plans(unsigned bits) {
  std::vector<MultPlan> plans;
  for (unsigned depth = 0; depth <= bits; ++depth) {
    plans.push_back(MultPlan{depth, false, false, false});
    plans.push_back(MultPlan{depth, false, false, true});
    plans.push_back(MultPlan{depth, false, true, true});
  }
  plans.push_back(MultPlan{0, true, false, false});
  plans.push_back(MultPlan{0, true, false, true});
  return plans;
}

struct MultSweep {
  SeparatorMode sep;
  double vdd;
  unsigned bits;
  std::uint64_t cycles_sum;  ///< sum of plan cycles over the sweep
  std::uint64_t digest;      ///< FNV-1a over (cycles, energy bits) in sweep order
  std::uint64_t full_energy;  ///< the static full-depth plan's energy bits
};

// clang-format off
const std::vector<MultSweep> kMultSweeps = {
    {SeparatorMode::Enabled, 0.9, 2, 21, 0xDDAF1D64328F9F17ull, 0x3DA56767501722B9ull},
    {SeparatorMode::Enabled, 0.9, 4, 48, 0xFAFFBC379552D449ull, 0x3DB09D57F662648Aull},
    {SeparatorMode::Enabled, 0.9, 8, 138, 0xDDA92826C42FCE41ull, 0x3DBC70A093100AE5ull},
    {SeparatorMode::Enabled, 0.9, 16, 462, 0x848252B4EC089F17ull, 0x3DCA0B98E635ABCBull},
    {SeparatorMode::Enabled, 0.9, 32, 1686, 0x55C541F502D3773Dull, 0x3DD8D9150FC87C38ull},
    {SeparatorMode::Enabled, 0.6, 2, 21, 0x75467C4F0DCB7BC8ull, 0x3D930694B8F81EDCull},
    {SeparatorMode::Enabled, 0.6, 4, 48, 0x9B1452AF3727BACCull, 0x3D9D897FEEE7CF29ull},
    {SeparatorMode::Enabled, 0.6, 8, 138, 0xE3C1A0BD7359118Dull, 0x3DA947AB2D6397E4ull},
    {SeparatorMode::Enabled, 0.6, 16, 462, 0x2E5E0430A900302Full, 0x3DB726C0CCA17C44ull},
    {SeparatorMode::Enabled, 0.6, 32, 1686, 0x98FAA887950F9011ull, 0x3DC6164B9C406E74ull},
    {SeparatorMode::Disabled, 0.9, 2, 21, 0x408B74AF44CF0D12ull, 0x3DAA5B5438B9131Cull},
    {SeparatorMode::Disabled, 0.9, 4, 48, 0x1738D1BC4A4693DCull, 0x3DB4A209AE4B3610ull},
    {SeparatorMode::Disabled, 0.9, 8, 138, 0x233429078E971D3Full, 0x3DC1C56469144789ull},
    {SeparatorMode::Disabled, 0.9, 16, 462, 0xD417536BAEAD1F66ull, 0x3DD05711C678D044ull},
    {SeparatorMode::Disabled, 0.9, 32, 1686, 0x7E4F46ACF5F514D3ull, 0x3DDF3FD0EA562934ull},
    {SeparatorMode::Disabled, 0.6, 2, 21, 0xF830569C3993CEBCull, 0x3D976DA0326B9F35ull},
    {SeparatorMode::Disabled, 0.6, 4, 48, 0x6E6C61E9B52A3A41ull, 0x3DA257250CB4A1D4ull},
    {SeparatorMode::Disabled, 0.6, 8, 138, 0x442953D02FD713FAull, 0x3DAF97CEF3B24646ull},
    {SeparatorMode::Disabled, 0.6, 16, 462, 0xCEB5D0319BEECF2Cull, 0x3DBD0C9160D6C79Eull},
    {SeparatorMode::Disabled, 0.6, 32, 1686, 0x6A3C8C94568DE1FAull, 0x3DCBC6F297690842ull},
};
// clang-format on

TEST(AccountingGolden, MultCostAtEveryDepthAndStaging) {
  std::size_t row = 0;
  for (const SeparatorMode sep : kSeps) {
    for (const double vdd : kVdds) {
      const macro::CostModel cost(config(sep, vdd));
      for (const unsigned bits : kBits) {
        const Instruction mult = inst(Op::Mult, RowRef::main(0), RowRef::main(1), bits);
        MultSweep got{sep, vdd, bits, 0, kFnvBasis, 0};
        for (const MultPlan& plan : mult_plans(bits)) {
          const InstructionCost c = cost.instruction_cost(mult, plan);
          got.cycles_sum += c.cycles;
          got.digest = fnv(fnv(got.digest, c.cycles), bits_of(c.energy));
        }
        got.full_energy = bits_of(cost.instruction_cost(mult, MultPlan::full(bits)).energy);
        const bool pinned = row < kMultSweeps.size();
        if (pinned) {
          const MultSweep& want = kMultSweeps[row];
          EXPECT_EQ(want.sep, sep);
          EXPECT_EQ(want.vdd, vdd);
          EXPECT_EQ(want.bits, bits);
          EXPECT_EQ(got.cycles_sum, want.cycles_sum) << "MULT sweep @" << bits;
          EXPECT_EQ(got.digest, want.digest) << "MULT sweep @" << bits;
          EXPECT_EQ(got.full_energy, want.full_energy) << "MULT full @" << bits;
        }
        if (!pinned || got.cycles_sum != kMultSweeps[row].cycles_sum ||
            got.digest != kMultSweeps[row].digest ||
            got.full_energy != kMultSweeps[row].full_energy)
          std::printf("    {%s, %.1f, %u, %llu, 0x%016llXull, 0x%016llXull},\n", sep_name(sep),
                      vdd, bits, static_cast<unsigned long long>(got.cycles_sum),
                      static_cast<unsigned long long>(got.digest),
                      static_cast<unsigned long long>(got.full_energy));
        ++row;
      }
    }
  }
  EXPECT_EQ(row, kMultSweeps.size());
}

// ---- engine RunStats / BatchStats ---------------------------------------------

using engine::BatchStats;
using engine::ExecutionEngine;
using engine::OpKind;
using engine::OpResult;
using engine::RunStats;
using engine::VecOp;

macro::MemoryConfig small_memory() {
  macro::MemoryConfig cfg;
  cfg.banks = 2;
  cfg.macros_per_bank = 2;
  return cfg;
}

/// Random values of `bits`, a `zero_pct` percent share of them zero.
std::vector<std::uint64_t> values(std::size_t n, unsigned bits, unsigned zero_pct,
                                  std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t mask = bits >= 64 ? ~0ull : (1ull << bits) - 1;
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next_u64() % 100 < zero_pct ? 0 : rng.next_u64() & mask;
  return v;
}

/// One RunStats or BatchStats as pinned integers (energy as its bit pattern).
using Line = std::array<std::uint64_t, 8>;

Line line_of(const OpResult& r) {
  std::uint64_t digest = kFnvBasis;
  for (const std::uint64_t v : r.values) digest = fnv(digest, v);
  const RunStats& s = r.stats;
  return {s.elapsed_cycles,  s.instructions, s.fused_cycles_saved, s.adaptive_cycles_saved,
          s.load_cycles,     s.load_cycles_saved, bits_of(s.energy), digest};
}

Line line_of(const BatchStats& b) {
  return {b.compute_cycles, b.instructions, b.fused_cycles_saved, b.adaptive_cycles_saved,
          b.load_cycles,    b.pipelined_cycles, bits_of(b.energy),
          std::bit_cast<std::uint64_t>(b.elapsed_time.si())};
}

/// Runs the seeded request set on a fresh memory under `policy`: a mixed
/// run_batch (span and resident operands), two run_forwards over pinned
/// weights (the first materializes them), and a run_chain. Returns one line
/// per op result followed by the batch line, request by request.
std::vector<Line> run_requests(const macro::AdaptivePolicy& policy) {
  macro::ImcMemory mem(small_memory());
  ExecutionEngine eng(mem, engine::EngineConfig{2});
  eng.set_adaptive_policy(policy);
  std::vector<Line> out;
  const auto record = [&](const std::vector<OpResult>& rs) {
    for (const OpResult& r : rs) out.push_back(line_of(r));
    out.push_back(line_of(eng.last_batch()));
  };

  // run_batch: every op kind, 8-bit, 300 elements; the MULT operands are
  // 75% zero and one MULT multiplies a resident operand.
  const auto a = values(300, 8, 0, 0xA1);
  const auto b = values(300, 8, 0, 0xB1);
  const auto sa = values(300, 8, 75, 0xA2);
  const auto sb = values(300, 8, 0, 0xB2);
  const engine::ResidentOperand ra = eng.pin(sb, 8, engine::OperandLayout::MultUnit);
  std::vector<VecOp> batch = {
      {OpKind::Mult, 8, periph::LogicFn::And, sa, sb},
      {OpKind::Add, 8, periph::LogicFn::And, a, b},
      {OpKind::Sub, 8, periph::LogicFn::And, a, b},
      {OpKind::AddShift, 8, periph::LogicFn::And, a, b},
      {OpKind::Not, 8, periph::LogicFn::And, a, {}},
      {OpKind::Logic, 8, periph::LogicFn::Xor, a, b},
  };
  VecOp resident{OpKind::Mult, 8, periph::LogicFn::And, {}, sa};
  resident.ra = ra;
  batch.push_back(resident);
  record(eng.run_batch(batch));

  // run_forward: three pinned 8-bit weights against a 75%-zero activation.
  std::vector<std::vector<std::uint64_t>> w;
  std::vector<engine::ResidentOperand> handles;
  for (std::uint64_t j = 0; j < 3; ++j) {
    w.push_back(values(200, 8, 10, 0xC0 + j));
    handles.push_back(eng.pin(w.back(), 8, engine::OperandLayout::MultUnit));
  }
  const auto x = values(200, 8, 75, 0xD0);
  record(eng.run_forward(handles, x));
  const auto x2 = values(200, 8, 50, 0xD1);
  record(eng.run_forward(handles, x2));

  // run_chain: a 4-bit MULT head (half-zero multiplicand, 2-bit multiplier)
  // folding an ADD and an ADD-Shift link at 8 bits.
  const auto ca = values(150, 4, 50, 0xE0);
  const auto cb = values(150, 2, 0, 0xE1);
  const auto l0 = values(150, 8, 0, 0xE2);
  const auto l1 = values(150, 8, 0, 0xE3);
  engine::ChainRequest chain;
  chain.bits = 4;
  chain.a = ca;
  chain.b = cb;
  chain.links = {{macro::ChainLinkKind::Add, l0}, {macro::ChainLinkKind::AddShift, l1}};
  record({eng.run_chain(chain)});
  return out;
}

void print_lines(const char* name, const std::vector<Line>& lines) {
  std::printf("const std::vector<Line> %s = {\n", name);
  for (const Line& l : lines) {
    std::printf("    {%llu, %llu, %llu, %llu, %llu, %llu, 0x%016llXull, 0x%016llXull},\n",
                static_cast<unsigned long long>(l[0]), static_cast<unsigned long long>(l[1]),
                static_cast<unsigned long long>(l[2]), static_cast<unsigned long long>(l[3]),
                static_cast<unsigned long long>(l[4]), static_cast<unsigned long long>(l[5]),
                static_cast<unsigned long long>(l[6]), static_cast<unsigned long long>(l[7]));
  }
  std::printf("};\n");
}

// Per line: cycles, instructions, fused, adaptive, load, then load saved
// (op) or pipelined cycles (batch), energy bits, then the output digest (op)
// or elapsed-time bits (batch). Request order: run_batch (7 ops + batch),
// run_forward x2 (3 ops + batch each), run_chain (1 op + batch).
// clang-format off
const std::vector<Line> kPolicyOff = {
    {100, 38, 0, 0, 20, 0, 0x3E10E2DF57518679ull, 0x6651729147950333ull},
    {5, 19, 0, 0, 10, 0, 0x3DD6F68C70A16F9Cull, 0x0D39133AEACA41B8ull},
    {10, 19, 0, 0, 10, 0, 0x3DE6CBC3AF880A30ull, 0x232BA9A1AE9A045Cull},
    {5, 19, 0, 0, 10, 0, 0x3DD82874A21704CAull, 0xB9ABAE0EE93C119Full},
    {5, 19, 0, 0, 5, 0, 0x3DD6A0FAEE6EA4C3ull, 0x3145AC87956B3D28ull},
    {5, 19, 0, 0, 10, 0, 0x3DD6F68C70A16F9Cull, 0x9D7868C8EA0FFBA4ull},
    {100, 38, 0, 0, 20, 0, 0x3E10E2DF57518679ull, 0x6651729147950333ull},
    {230, 171, 0, 0, 85, 275, 0x3E25354FD5D84B62ull, 0x3E8641B4201AB717ull},
    {64, 25, 6, 0, 14, 0, 0x3E0637FD72E48881ull, 0x0EBC3EDD9BFFEDA2ull},
    {56, 25, 14, 0, 7, 7, 0x3E0469AAD9C06B7Eull, 0xBE78C002DB5F3335ull},
    {56, 25, 14, 0, 7, 7, 0x3E0469AAD9C06B7Eull, 0x0DC17112AA21C9E7ull},
    {176, 75, 34, 0, 28, 204, 0x3E1F85A99332AFBFull, 0x3E8082A8FEAE5946ull},
    {64, 25, 6, 0, 7, 7, 0x3E0637FD72E48881ull, 0x078834CAA2362DF1ull},
    {56, 25, 14, 0, 0, 14, 0x3E0469AAD9C06B7Eull, 0x1C625806C926B07Bull},
    {56, 25, 14, 0, 0, 14, 0x3E0469AAD9C06B7Eull, 0x042E966CB24B37DEull},
    {176, 75, 34, 0, 7, 183, 0x3E1F85A99332AFBFull, 0x3E7D9F202347DC67ull},
    {24, 30, 0, 0, 12, 6, 0x3DF174815D20D484ull, 0x5501C61D00D47485ull},
    {24, 30, 0, 0, 12, 36, 0x3DF174815D20D484ull, 0x3E574F0CB2D80590ull},
};
const std::vector<Line> kPolicyOn = {
    {89, 38, 0, 11, 20, 0, 0x3E09F4D147363664ull, 0x6651729147950333ull},
    {5, 19, 0, 0, 10, 0, 0x3DD6F68C70A16F9Cull, 0x0D39133AEACA41B8ull},
    {10, 19, 0, 0, 10, 0, 0x3DE6CBC3AF880A30ull, 0x232BA9A1AE9A045Cull},
    {5, 19, 0, 0, 10, 0, 0x3DD82874A21704CAull, 0xB9ABAE0EE93C119Full},
    {5, 19, 0, 0, 5, 0, 0x3DD6A0FAEE6EA4C3ull, 0x3145AC87956B3D28ull},
    {5, 19, 0, 0, 10, 0, 0x3DD6F68C70A16F9Cull, 0x9D7868C8EA0FFBA4ull},
    {91, 38, 0, 9, 20, 0, 0x3E0A3C160B78935Bull, 0x6651729147950333ull},
    {210, 171, 0, 20, 85, 255, 0x3E215EAA53327759ull, 0x3E84A3533E59EF98ull},
    {52, 25, 5, 13, 14, 0, 0x3DFF8C48F2314B9Full, 0x0EBC3EDD9BFFEDA2ull},
    {42, 25, 12, 16, 7, 7, 0x3DFC5979FB418F3Aull, 0xBE78C002DB5F3335ull},
    {41, 25, 11, 18, 7, 7, 0x3DFD220D809D966Bull, 0x0DC17112AA21C9E7ull},
    {135, 75, 28, 47, 28, 163, 0x3E1641F41B841C50ull, 0x3E7A625E5FC64D69ull},
    {60, 25, 6, 4, 7, 7, 0x3E04C1276E82CAFFull, 0x078834CAA2362DF1ull},
    {54, 25, 14, 2, 0, 14, 0x3E034C97C8B6F7A1ull, 0x1C625806C926B07Bull},
    {54, 25, 14, 2, 0, 14, 0x3E0364595F77C149ull, 0x042E966CB24B37DEull},
    {168, 75, 34, 8, 7, 175, 0x3E1DB90C4B58C1F4ull, 0x3E7C539F6EADA335ull},
    {20, 30, 0, 4, 12, 6, 0x3DEC32F6C5F1E845ull, 0x5501C61D00D47485ull},
    {20, 30, 0, 4, 12, 32, 0x3DEC32F6C5F1E845ull, 0x3E54B80B49A3932Bull},
};
// clang-format on

void expect_lines(const char* name, const std::vector<Line>& got, std::span<const Line> want) {
  EXPECT_EQ(got.size(), want.size()) << name;
  bool same = got.size() == want.size();
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i], want[i]) << name << " line " << i;
    same = same && got[i] == want[i];
  }
  if (!same) print_lines(name, got);
}

TEST(AccountingGolden, EngineStatsPolicyOff) {
  expect_lines("kPolicyOff", run_requests({}), kPolicyOff);
}

TEST(AccountingGolden, EngineStatsPolicyOn) {
  expect_lines("kPolicyOn", run_requests({true, true}), kPolicyOn);
}

}  // namespace
}  // namespace bpim
