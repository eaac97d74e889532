// Bit-identity pins for MULT under injected read disturb.
//
// With disturb on at a nonzero flip probability, every add-and-shift
// iteration's dual-WL access draws against D1 XOR D2, so the products, the
// corrupted dummy rows and the flip count depend on the exact RNG draw
// order of the iterated datapath. Every constant below was captured from
// that datapath; any faster evaluation of MULT must leave this path
// reproducing them exactly.
//
// Each case runs a fixed sequence of MULTs on one 128-column macro and
// records the flip count, an FNV-1a digest of every returned D2 row, and
// the final D1, D2 and last operand rows as exact words. On a mismatch the
// test prints the case's actual line in table format.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "macro/imc_macro.hpp"

namespace bpim::macro {
namespace {

using array::RowRef;

enum class Mode { Plain, Adaptive, Chained };

constexpr std::size_t kCols = 128;
constexpr std::size_t kPoolRows = 8;
constexpr int kRounds = 160;

struct Outcome {
  std::uint64_t flips = 0;
  std::uint64_t digest = 0;
  std::array<std::uint64_t, 8> words{};  ///< D1[0..1], D2[0..1], a[0..1], b[0..1]
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

struct Golden {
  WlScheme scheme;
  std::uint64_t seed;
  unsigned bits;
  Mode mode;
  Outcome want;
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Operand pool: rows 0..5 hold MULT operands (a quarter zero, the rest of
/// random width), rows 6 and 7 are fully random (high halves set too).
void load_pool(ImcMacro& m, unsigned bits) {
  Rng rng(0xD157 + bits);
  const std::size_t units = m.mult_units_per_row(bits);
  std::vector<std::uint64_t> values(units);
  for (std::size_t r = 0; r < 6; ++r) {
    for (auto& v : values) {
      const unsigned width = 1 + static_cast<unsigned>(rng.next_u64() % bits);
      v = (rng.next_u64() % 4 == 0) ? 0 : (rng.next_u64() & ((1ull << width) - 1));
    }
    m.poke_mult_operands(r, 0, bits, values);
  }
  for (std::size_t r = 6; r < kPoolRows; ++r) {
    BitVector row(kCols);
    row.randomize(rng);
    m.poke_row(r, row);
  }
}

Outcome run_case(WlScheme scheme, std::uint64_t seed, unsigned bits, Mode mode) {
  MacroConfig cfg;
  cfg.geometry.cols = kCols;
  cfg.wl_scheme = scheme;
  cfg.inject_disturb = true;
  cfg.seed = seed;
  ImcMacro m{cfg};
  load_pool(m, bits);
  const AdaptivePolicy adaptive{true, true};
  Outcome out;
  out.digest = 0xCBF29CE484222325ull;
  std::size_t a = 0, b = 0;
  for (int r = 0; r < kRounds; ++r) {
    b = static_cast<std::size_t>(r * 5 + 1) % kPoolRows;
    const BitVector* d2 = nullptr;
    switch (mode) {
      case Mode::Plain:
        a = static_cast<std::size_t>(r * 3) % kPoolRows;
        d2 = &m.mult_rows(RowRef::main(a), RowRef::main(b), bits);
        break;
      case Mode::Adaptive:
        a = static_cast<std::size_t>(r * 3) % kPoolRows;
        d2 = &m.mult_rows(RowRef::main(a), RowRef::main(b), bits, adaptive);
        break;
      case Mode::Chained: {
        // Chains of eight links over one multiplicand: the head stages D1,
        // the links reuse whatever D1 holds by then.
        a = static_cast<std::size_t>(r / 8) % kPoolRows;
        const bool link = r % 8 != 0;
        d2 = &m.mult_rows_chained(RowRef::main(a), RowRef::main(b), bits, link, link);
        break;
      }
    }
    for (std::size_t w = 0; w < d2->word_count(); ++w) out.digest = fnv(out.digest, d2->word(w));
  }
  out.flips = m.disturb_flips();
  const BitVector* rows[] = {&m.sram().row(RowRef::dummy(ImcMacro::kDummyOperand)),
                             &m.sram().row(RowRef::dummy(ImcMacro::kDummyAccum)),
                             &m.peek_row(a), &m.peek_row(b)};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t w = 0; w < 2; ++w) out.words[2 * i + w] = rows[i]->word(w);
  return out;
}

const char* scheme_name(WlScheme s) {
  return s == WlScheme::Wlud ? "WlScheme::Wlud" : "WlScheme::FullSwingLong";
}
const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Plain: return "Mode::Plain";
    case Mode::Adaptive: return "Mode::Adaptive";
    case Mode::Chained: return "Mode::Chained";
  }
  return "";
}

void print_line(const Golden& g, const Outcome& o) {
  std::printf("    {%s, 0x%llX, %u, %s, {%llu, 0x%016llXull, {", scheme_name(g.scheme),
              static_cast<unsigned long long>(g.seed), g.bits, mode_name(g.mode),
              static_cast<unsigned long long>(o.flips),
              static_cast<unsigned long long>(o.digest));
  for (std::size_t i = 0; i < o.words.size(); ++i)
    std::printf("%s0x%016llXull", i ? ", " : "", static_cast<unsigned long long>(o.words[i]));
  std::printf("}}},\n");
}

// clang-format off
const Golden kGolden[] = {
    {WlScheme::FullSwingLong, 0x5EED1, 2, Mode::Plain, {5327, 0x930BAB1BD05E1B16ull, {0x0200033000000120ull, 0x6001102201000020ull, 0x0400030000000100ull, 0x6001100201000120ull, 0x0200031010010120ull, 0x2003103101000130ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 2, Mode::Adaptive, {5327, 0x930BAB1BD05E1B16ull, {0x0200033000000120ull, 0x6001102201000020ull, 0x0400030000000100ull, 0x6001100201000120ull, 0x0200031010010120ull, 0x2003103101000130ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 2, Mode::Chained, {1664, 0x681B5CE5D5E7FFB1ull, {0x0000000000000000ull, 0x0000000000400000ull, 0x0000000000000000ull, 0x0000000000C00000ull, 0x0112300110020000ull, 0x3010321010130300ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 4, Mode::Plain, {7438, 0xF3FB7A58C17C051Bull, {0x000100001E00001Cull, 0x000000030E002000ull, 0x0001000008000020ull, 0x000020030C00000Cull, 0x0007000002000206ull, 0x0100040102000802ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 4, Mode::Adaptive, {6797, 0x816A5D1078E16BA5ull, {0x000C00000000000Eull, 0x0000000200000002ull, 0x000C000000000026ull, 0x0000180900000002ull, 0x0007000002000206ull, 0x0100040102000802ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 4, Mode::Chained, {1859, 0x68D6649D4BA999CFull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x070107010000030Cull, 0x0005000000000001ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 8, Mode::Plain, {12384, 0x63393EAAADBDC952ull, {0x0000000000000000ull, 0x0000001000000008ull, 0x0000000000000000ull, 0x0000001C00000000ull, 0x0000000000500008ull, 0x0000000100000004ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 8, Mode::Adaptive, {10231, 0xB1FD4D4D4BDBD295ull, {0x0000000000000000ull, 0x0000000600000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000500008ull, 0x0000000100000004ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 8, Mode::Chained, {4413, 0xF57AC60149FCF72Bull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x00000000001F004Cull, 0x0019000000000000ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 16, Mode::Plain, {23992, 0x20EE7F814EAC3140ull, {0x0004F1800000E7C0ull, 0x0000000000054080ull, 0x0000E0E0000DC080ull, 0x0000000000054380ull, 0x0000001B0000051Full, 0x0000000100000062ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 16, Mode::Adaptive, {21153, 0x05B22C9C1B485914ull, {0x0001200800004BF0ull, 0x0000000000000000ull, 0x000140400003E3E8ull, 0x0000000000000000ull, 0x0000001B0000051Full, 0x0000000100000062ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 16, Mode::Chained, {8120, 0x395D2989A93B79FDull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000200000000ull, 0x0000140E00000000ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 32, Mode::Plain, {33522, 0x04BECEAF6663BE81ull, {0x0000000001C3C000ull, 0x0000000000EFC000ull, 0x0000000003C78000ull, 0x0000000000CFF000ull, 0x000000000000185Eull, 0x000000000000139Full, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 32, Mode::Adaptive, {20078, 0xC3573006EBDDA433ull, {0x00000000002190E8ull, 0x000000000000C010ull, 0x00000000000181F0ull, 0x000000000000C012ull, 0x000000000000185Eull, 0x000000000000139Full, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::FullSwingLong, 0x5EED1, 32, Mode::Chained, {9415, 0x15C983D1A4B2522Full, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000004ull, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 2, Mode::Plain, {5181, 0xDA079DC7DAA0E506ull, {0x0000000000000000ull, 0x0003000101000100ull, 0x0000070010010240ull, 0x0002000301000010ull, 0x0200031010010120ull, 0x2003103101000130ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 2, Mode::Adaptive, {5181, 0xDA079DC7DAA0E506ull, {0x0000000000000000ull, 0x0003000101000100ull, 0x0000070010010240ull, 0x0002000301000010ull, 0x0200031010010120ull, 0x2003103101000130ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 2, Mode::Chained, {1642, 0x3EE886FE41CEF655ull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0112300110020000ull, 0x3010321010130300ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 4, Mode::Plain, {7452, 0x39499CD362CE7B33ull, {0x0002000000000404ull, 0x0000000310001010ull, 0x000A00000000025Cull, 0x070010070000101Cull, 0x0007000002000206ull, 0x0100040102000802ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 4, Mode::Adaptive, {6838, 0x7F0D105C25F75463ull, {0x000300000000080Cull, 0x0200100002000000ull, 0x0002000004000814ull, 0x0000100202000006ull, 0x0007000002000206ull, 0x0100040102000802ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 4, Mode::Chained, {1910, 0x4297BB1B3392E595ull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x070107010000030Cull, 0x0005000000000001ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 8, Mode::Plain, {12532, 0x20ABF585A7EC54AFull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000500008ull, 0x0000000100000004ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 8, Mode::Adaptive, {10199, 0xAC1362128D3AD618ull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000500008ull, 0x0000000100000004ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 8, Mode::Chained, {4645, 0xC8BF201930E51AF9ull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x00000000001F004Cull, 0x0019000000000000ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 16, Mode::Plain, {23973, 0x6107CD4F195F778Full, {0x0000000000000300ull, 0x0000000000000000ull, 0x0000000000001E00ull, 0x0000000000000000ull, 0x0000001B0000051Full, 0x0000000100000062ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 16, Mode::Adaptive, {20618, 0x42539459EBF70BE9ull, {0x000013B000000000ull, 0x0000000000000600ull, 0x000007E600000000ull, 0x0000000000002200ull, 0x0000001B0000051Full, 0x0000000100000062ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 16, Mode::Chained, {10205, 0x1DDDB8ADC7044568ull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000200000000ull, 0x0000140E00000000ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 32, Mode::Plain, {34806, 0x6F5A986D40EF9C35ull, {0x00000000FFB10000ull, 0x00000000007FF000ull, 0x00000002FF310000ull, 0x0000000001FFF000ull, 0x000000000000185Eull, 0x000000000000139Full, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 32, Mode::Adaptive, {20405, 0x043AD295E55BB820ull, {0x00000000000F0878ull, 0x0000000000003A00ull, 0x00000000000C0C50ull, 0x0000000000003C00ull, 0x000000000000185Eull, 0x000000000000139Full, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::FullSwingLong, 0x5EED2, 32, Mode::Chained, {10677, 0xCC44D660C32A8C89ull, {0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000004ull, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::Wlud, 0x5EED1, 2, Mode::Plain, {2, 0x1E759DC154EBF39Cull, {0x0200031010010120ull, 0x2003103101000130ull, 0x0000030010000000ull, 0x0000000301000000ull, 0x0200031010010120ull, 0x2003103101000130ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::Wlud, 0x5EED1, 2, Mode::Adaptive, {2, 0x1E759DC154EBF39Cull, {0x0200031010010120ull, 0x2003103101000130ull, 0x0000030010000000ull, 0x0000000301000000ull, 0x0200031010010120ull, 0x2003103101000130ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::Wlud, 0x5EED1, 2, Mode::Chained, {2, 0x4B0F1D33CB8C7D15ull, {0x0112300110020000ull, 0x3010321010130300ull, 0x0006000010000000ull, 0x0000020000030000ull, 0x0112300110020000ull, 0x3010321010130300ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::Wlud, 0x5EED1, 4, Mode::Plain, {4, 0xB20A87EFFEE8E3D8ull, {0x0007000002000206ull, 0x0100040102000802ull, 0x000000000800041Eull, 0x00001C0300002002ull, 0x0007000002000206ull, 0x0100040102000802ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::Wlud, 0x5EED1, 4, Mode::Adaptive, {4, 0x46BCF75D394E3ED5ull, {0x0007000002000206ull, 0x0100040102000802ull, 0x000000000800041Eull, 0x00001C0300002002ull, 0x0007000002000206ull, 0x0100040102000802ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::Wlud, 0x5EED1, 4, Mode::Chained, {4, 0x926245D783583471ull, {0x070107010000030Cull, 0x0005000000000001ull, 0x230000000000063Cull, 0x0000000000000001ull, 0x070107010000030Cull, 0x0005000000000001ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::Wlud, 0x5EED1, 8, Mode::Plain, {2, 0x778F7EF8232B29FAull, {0x0000000000500008ull, 0x0000000100000004ull, 0x0000000000000020ull, 0x0000002A00000008ull, 0x0000000000500008ull, 0x0000000100000004ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::Wlud, 0x5EED1, 8, Mode::Adaptive, {4, 0xD757C7B9828CC636ull, {0x0000000000500008ull, 0x0000000100000004ull, 0x0000000000000020ull, 0x0000002A00000008ull, 0x0000000000500008ull, 0x0000000100000004ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::Wlud, 0x5EED1, 8, Mode::Chained, {4, 0x31FB29F3B33FCCB4ull, {0x00000000001F004Cull, 0x0019000000000000ull, 0x0000000000000130ull, 0x0000000000000000ull, 0x00000000001F004Cull, 0x0019000000000000ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::Wlud, 0x5EED1, 16, Mode::Plain, {5, 0xDFF95EF1EBA59301ull, {0x0000001B0000051Full, 0x0000000100000062ull, 0x000311F400000000ull, 0x0000000100000062ull, 0x0000001B0000051Full, 0x0000000100000062ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::Wlud, 0x5EED1, 16, Mode::Adaptive, {4, 0xC579F6379C309F03ull, {0x0000001B0000051Full, 0x0000000100000062ull, 0x000311F400000000ull, 0x0000000100000062ull, 0x0000001B0000051Full, 0x0000000100000062ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::Wlud, 0x5EED1, 16, Mode::Chained, {5, 0x9941E4823FB7EC5Bull, {0x0000000200000000ull, 0x0000140E00000000ull, 0x00003A3800000000ull, 0x0000140E00000000ull, 0x0000000200000000ull, 0x0000140E00000000ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::Wlud, 0x5EED1, 32, Mode::Plain, {7, 0x369C7A21B5D5B3E9ull, {0x000000000000185Eull, 0x000000000000139Full, 0x00000000002F3620ull, 0x0000000000000000ull, 0x000000000000185Eull, 0x000000000000139Full, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::Wlud, 0x5EED1, 32, Mode::Adaptive, {5, 0x33F7C69A383A8E16ull, {0x000000000000185Eull, 0x000000000000139Full, 0x00000000002F3620ull, 0x0000000000000000ull, 0x000000000000185Eull, 0x000000000000139Full, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::Wlud, 0x5EED1, 32, Mode::Chained, {5, 0xA237E6A6A60F0F84ull, {0x0000000000000000ull, 0x0000000000000004ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000004ull, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::Wlud, 0x5EED2, 2, Mode::Plain, {2, 0x1437812253489AF5ull, {0x0200031010010120ull, 0x2003103101000130ull, 0x0000030010000000ull, 0x0000000301000000ull, 0x0200031010010120ull, 0x2003103101000130ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::Wlud, 0x5EED2, 2, Mode::Adaptive, {2, 0x1437812253489AF5ull, {0x0200031010010120ull, 0x2003103101000130ull, 0x0000030010000000ull, 0x0000000301000000ull, 0x0200031010010120ull, 0x2003103101000130ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::Wlud, 0x5EED2, 2, Mode::Chained, {2, 0x29D0DCE7A8D75E00ull, {0x0112300110020000ull, 0x3010321010130300ull, 0x0006000010000000ull, 0x0000020000030000ull, 0x0112300110020000ull, 0x3010321010130300ull, 0x0003010010103000ull, 0x0000010301011001ull}}},
    {WlScheme::Wlud, 0x5EED2, 4, Mode::Plain, {2, 0xFAF9B0F21F182B09ull, {0x0007000002000206ull, 0x0100040102000802ull, 0x000000000800041Eull, 0x00001C0300002002ull, 0x0007000002000206ull, 0x0100040102000802ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::Wlud, 0x5EED2, 4, Mode::Adaptive, {2, 0x4DCFBD118C14BC23ull, {0x0007000002000206ull, 0x0100040102000802ull, 0x000000000800041Eull, 0x00001C0300002002ull, 0x0007000002000206ull, 0x0100040102000802ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::Wlud, 0x5EED2, 4, Mode::Chained, {2, 0x9325C2A4005D3BC5ull, {0x070107010000030Cull, 0x0005000000000001ull, 0x230000000000063Cull, 0x0000000000000001ull, 0x070107010000030Cull, 0x0005000000000001ull, 0x0500000004030205ull, 0x0000070300010401ull}}},
    {WlScheme::Wlud, 0x5EED2, 8, Mode::Plain, {2, 0x3891A68621C7031Eull, {0x0000000000500008ull, 0x0000000100000004ull, 0x0000000000000020ull, 0x0000002A00000008ull, 0x0000000000500008ull, 0x0000000100000004ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::Wlud, 0x5EED2, 8, Mode::Adaptive, {2, 0x03C86806CA314395ull, {0x0000000000500008ull, 0x0000000100000004ull, 0x0000000000000020ull, 0x0000002A00000008ull, 0x0000000000500008ull, 0x0000000100000004ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::Wlud, 0x5EED2, 8, Mode::Chained, {2, 0xE1836D21B1E666E3ull, {0x00000000001F004Cull, 0x0019000000000000ull, 0x0000000000000130ull, 0x0000000000000000ull, 0x00000000001F004Cull, 0x0019000000000000ull, 0x0000002B00000004ull, 0x0000002A00000002ull}}},
    {WlScheme::Wlud, 0x5EED2, 16, Mode::Plain, {2, 0x09F653BB9C7EB095ull, {0x0000001B0000051Full, 0x0000000100000062ull, 0x000311F400000000ull, 0x0000000100000062ull, 0x0000001B0000051Full, 0x0000000100000062ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::Wlud, 0x5EED2, 16, Mode::Adaptive, {1, 0xFF9AD4EB01E409A8ull, {0x0000001B0000051Full, 0x0000000100000062ull, 0x000311F400000000ull, 0x0000000100000062ull, 0x0000001B0000051Full, 0x0000000100000062ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::Wlud, 0x5EED2, 16, Mode::Chained, {2, 0x7F34CF3EDD75019Aull, {0x0000000200000000ull, 0x0000140E00000000ull, 0x00003A3800000000ull, 0x0000140E00000000ull, 0x0000000200000000ull, 0x0000140E00000000ull, 0x00001D1C00000000ull, 0x0000000100000001ull}}},
    {WlScheme::Wlud, 0x5EED2, 32, Mode::Plain, {6, 0x96690723EC7D646Full, {0x000000000000185Eull, 0x000000000000139Full, 0x00000000002F3620ull, 0x0000000000000000ull, 0x000000000000185Eull, 0x000000000000139Full, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::Wlud, 0x5EED2, 32, Mode::Adaptive, {2, 0x1DF15B5C78EDECE1ull, {0x000000000000185Eull, 0x000000000000139Full, 0x00000000002F3620ull, 0x0000000000000000ull, 0x000000000000185Eull, 0x000000000000139Full, 0x00000000000001F0ull, 0x0000000000000000ull}}},
    {WlScheme::Wlud, 0x5EED2, 32, Mode::Chained, {4, 0xE0B658104BDC57E7ull, {0x0000000000000000ull, 0x0000000000000004ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000004ull, 0x00000000000001F0ull, 0x0000000000000000ull}}},
};
// clang-format on

TEST(MultDisturbGolden, IteratedDatapathReproducesPinnedOutcomes) {
  std::size_t i = 0;
  for (const WlScheme scheme : {WlScheme::FullSwingLong, WlScheme::Wlud}) {
    for (const std::uint64_t seed : {0x5EED1ull, 0x5EED2ull}) {
      for (const unsigned bits : {2u, 4u, 8u, 16u, 32u}) {
        for (const Mode mode : {Mode::Plain, Mode::Adaptive, Mode::Chained}) {
          const Golden key{scheme, seed, bits, mode, {}};
          const Outcome got = run_case(scheme, seed, bits, mode);
          const bool pinned = i < std::size(kGolden);
          if (pinned) {
            const Golden& g = kGolden[i];
            ASSERT_TRUE(g.scheme == scheme && g.seed == seed && g.bits == bits && g.mode == mode)
                << "golden table out of order at entry " << i;
            EXPECT_EQ(got, g.want) << "case " << i;
          }
          if (!pinned || !(got == kGolden[i].want)) print_line(key, got);
          ++i;
        }
      }
    }
  }
  EXPECT_EQ(i, std::size(kGolden)) << "golden table size";
}

TEST(MultDisturbGolden, EveryCaseFlips) {
  // The pins are only meaningful if the RNG-driven path really corrupts
  // state: every case, Wlud's rare flips included, records some.
  for (const Golden& g : kGolden) EXPECT_GT(g.want.flips, 0u);
}

}  // namespace
}  // namespace bpim::macro
