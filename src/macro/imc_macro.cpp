#include "macro/imc_macro.hpp"

#include <array>
#include <bit>
#include <cmath>

#include "common/require.hpp"

namespace bpim::macro {

using array::RowRef;
using energy::SeparatorMode;
using periph::FaLogics;
using periph::LogicFn;

DisturbModel DisturbModel::for_scheme(WlScheme scheme) {
  switch (scheme) {
    case WlScheme::ShortPulseBoost:
      // Measured < 1/2M in the ADM Monte Carlo (timing/adm): the WL is gone
      // before the boost collapses the BL.
      return {0.0};
    case WlScheme::Wlud:
      // Iso-ADM calibration point (2.25e-5 measured at 0.55 V WL, 0.9 V).
      return {2.25e-5};
    case WlScheme::FullSwingLong:
      // Full-swing WL held while the BL collapses: the access device wins
      // against the pull-up for a large fraction of mismatch samples.
      return {0.35};
  }
  return {0.0};
}

ImcMacro::ImcMacro(const MacroConfig& cfg)
    : cfg_(cfg),
      array_(cfg.geometry),
      cost_(cfg),
      disturb_(DisturbModel::for_scheme(cfg.wl_scheme)),
      rng_(cfg.seed),
      sense_{BitVector(cfg.geometry.cols), BitVector(cfg.geometry.cols)},
      fa_{BitVector(cfg.geometry.cols), BitVector(cfg.geometry.cols),
          BitVector(cfg.geometry.cols)},
      ff_(cfg.geometry.cols),
      drive_(cfg.geometry.cols) {
  BPIM_REQUIRE(cfg.geometry.dummy_rows >= 3, "the sequencer needs three dummy rows");
}

std::size_t ImcMacro::words_per_row(unsigned bits) const {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  BPIM_REQUIRE(cols() % bits == 0, "precision must divide the row width");
  return cols() / bits;
}

std::size_t ImcMacro::mult_units_per_row(unsigned bits) const {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  BPIM_REQUIRE(cols() % (2 * bits) == 0, "2N-bit units must divide the row width");
  return cols() / (2 * static_cast<std::size_t>(bits));
}

// ---- data access outside the instruction stream -----------------------------

void ImcMacro::poke_row(std::size_t r, const BitVector& data) {
  array_.write_row(RowRef::main(r), data);
}

const BitVector& ImcMacro::peek_row(std::size_t r) const { return array_.row(RowRef::main(r)); }

void ImcMacro::poke_word(std::size_t r, std::size_t word, unsigned bits, std::uint64_t value) {
  BPIM_REQUIRE(word < words_per_row(bits), "word index out of range");
  BPIM_REQUIRE(BitVector::fits_u64(value, bits), "value does not fit precision");
  array_.deposit_bits(RowRef::main(r), word * bits, bits, value);
}

std::uint64_t ImcMacro::peek_word(std::size_t r, std::size_t word, unsigned bits) const {
  BPIM_REQUIRE(word < words_per_row(bits), "word index out of range");
  return array_.extract_bits(RowRef::main(r), word * bits, bits);
}

void ImcMacro::poke_words(std::size_t r, std::size_t first_word, unsigned bits,
                          std::span<const std::uint64_t> values) {
  BPIM_REQUIRE(first_word + values.size() <= words_per_row(bits), "word range out of range");
  const RowRef row = RowRef::main(r);
  for (std::size_t i = 0; i < values.size(); ++i) {
    BPIM_REQUIRE(BitVector::fits_u64(values[i], bits), "value does not fit precision");
    array_.deposit_bits(row, (first_word + i) * bits, bits, values[i]);
  }
}

void ImcMacro::poke_mult_operand(std::size_t r, std::size_t unit, unsigned bits,
                                 std::uint64_t value) {
  BPIM_REQUIRE(unit < mult_units_per_row(bits), "unit index out of range");
  BPIM_REQUIRE(BitVector::fits_u64(value, bits), "value does not fit precision");
  // One deposit covers the whole unit: operand in the low half, zeros above.
  array_.deposit_bits(RowRef::main(r), unit * 2 * bits, 2 * bits, value);
}

void ImcMacro::poke_mult_operands(std::size_t r, std::size_t first_unit, unsigned bits,
                                  std::span<const std::uint64_t> values) {
  BPIM_REQUIRE(first_unit + values.size() <= mult_units_per_row(bits), "unit range out of range");
  const RowRef row = RowRef::main(r);
  for (std::size_t i = 0; i < values.size(); ++i) {
    BPIM_REQUIRE(BitVector::fits_u64(values[i], bits), "value does not fit precision");
    array_.deposit_bits(row, (first_unit + i) * 2 * bits, 2 * bits, values[i]);
  }
}

std::uint64_t ImcMacro::peek_mult_product(const BitVector& row, std::size_t unit,
                                          unsigned bits) const {
  BPIM_REQUIRE(unit < mult_units_per_row(bits), "unit index out of range");
  return row.extract_bits(unit * 2 * bits, 2 * bits);
}

// ---- datapath helpers ---------------------------------------------------------

void ImcMacro::store(RowRef dest, const BitVector& data) {
  if (cfg_.separator == SeparatorMode::Enabled && dest.is_dummy())
    array_.set_separated(true);  // adaptive: cut the heavy main-segment BL
  array_.write_row(dest, data);
  array_.set_separated(false);
}

void ImcMacro::sense_dual(RowRef a, RowRef b) {
  if (cfg_.separator == SeparatorMode::Enabled && a.is_dummy() && b.is_dummy())
    array_.set_separated(true);
  array_.compute_dual_into(a, b, sense_);
  array_.set_separated(false);
  maybe_disturb(a, b);
}

bool ImcMacro::draws_disturb() const {
  return cfg_.inject_disturb && disturb_.flip_probability > 0.0;
}

void ImcMacro::maybe_disturb(RowRef a, RowRef b) {
  if (!draws_disturb()) return;
  // Vulnerable columns hold complementary data: one cell discharges a BL and
  // the other cell's node on that BL sags toward it (paper Fig 1).
  const BitVector& row_a = array_.row(a);
  const BitVector& row_b = array_.row(b);
  std::size_t vulnerable = 0;
  for (std::size_t k = 0; k < row_a.word_count(); ++k)
    vulnerable += static_cast<std::size_t>(std::popcount(row_a.word(k) ^ row_b.word(k)));
  const std::size_t slots = 2 * vulnerable;  // cell in a, cell in b per column
  if (slots == 0) return;
  // Geometric-skip sampling: instead of one Bernoulli draw per vulnerable
  // cell, draw the gap to the next flip directly -- Geometric(p) -- so the
  // common no-flip compute costs one draw, not 2V. The flipped-cell
  // marginals are identical to the per-cell scan.
  const double denom = std::log1p(-disturb_.flip_probability);  // -inf at p == 1: every slot flips
  double gap = std::floor(std::log1p(-rng_.uniform()) / denom);
  if (!(gap < static_cast<double>(slots))) return;
  // At least one flip: list the vulnerable columns once, before any flip
  // changes which columns hold complementary data.
  disturb_cols_.clear();
  disturb_cols_.reserve(cols());  // grows once per macro, on its first flip
  for (std::size_t k = 0; k < row_a.word_count(); ++k) {
    for (std::uint64_t w = row_a.word(k) ^ row_b.word(k); w != 0; w &= w - 1)
      disturb_cols_.push_back(k * 64 + static_cast<std::size_t>(std::countr_zero(w)));
  }
  std::size_t j = 0;
  for (;;) {
    j += static_cast<std::size_t>(gap);
    const std::size_t c = disturb_cols_[j / 2];
    const RowRef victim = (j % 2 == 0) ? a : b;
    array_.set(victim, c, !array_.get(victim, c));
    ++disturb_flips_;
    ++j;
    gap = std::floor(std::log1p(-rng_.uniform()) / denom);
    if (!(gap < static_cast<double>(slots - j))) return;
  }
}

// ---- compute operations -----------------------------------------------------

const BitVector& ImcMacro::logic_rows(LogicFn fn, RowRef a, RowRef b) {
  sense_dual(a, b);
  FaLogics::logic_into(sense_, fn, drive_);
  return drive_;
}

const BitVector& ImcMacro::unary_row(Op op, RowRef src, RowRef dest, unsigned bits) {
  BPIM_REQUIRE(op == Op::Not || op == Op::Copy || op == Op::Shift, "not a single-WL op");
  if (op == Op::Shift) (void)words_per_row(bits);  // precision validation, as the seed path had
  array_.read_single_into(src, sense_);
  // NOT drives BLB; COPY and SHIFT drive BLT, SHIFT through the carry-
  // propagation path (<<1 within every precision word).
  drive_ = op == Op::Not ? sense_.bl_nor : sense_.bl_and;
  if (op == Op::Shift) drive_.shl1_in_fields(bits);
  store(dest, drive_);
  return drive_;
}

const BitVector& ImcMacro::add_rows(RowRef a, RowRef b, unsigned bits, std::optional<RowRef> dest,
                                    bool carry_in) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  sense_dual(a, b);
  FaLogics::add_into(sense_, bits, carry_in, fa_);
  if (dest) store(*dest, fa_.sum);
  return fa_.sum;
}

const BitVector& ImcMacro::add_shift_rows(RowRef a, RowRef b, unsigned bits, RowRef dest) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  sense_dual(a, b);
  FaLogics::add_into(sense_, bits, false, fa_);
  // The propagated-sum path writes S[n-1] into column n (MX0 + Y-path FF).
  (void)words_per_row(bits);  // the row must hold whole words at this precision
  drive_ = fa_.sum;
  drive_.shl1_in_fields(bits);
  store(dest, drive_);
  return drive_;
}

const BitVector& ImcMacro::sub_rows(RowRef a, RowRef b, unsigned bits) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  // Cycle 1: NOT(b) -> dummy operand row.
  const RowRef d1 = RowRef::dummy(kDummyOperand);
  array_.read_single_into(b, sense_);
  store(d1, sense_.bl_nor);
  // Cycle 2: a + ~b + 1 (two's complement).
  sense_dual(a, d1);
  FaLogics::add_into(sense_, bits, true, fa_);
  return fa_.sum;
}

const BitVector& ImcMacro::mult_rows(RowRef a, RowRef b, unsigned bits,
                                     const AdaptivePolicy& policy) {
  return mult_impl(a, b, bits, plan_mult(a, b, bits, policy));
}

const BitVector& ImcMacro::mult_rows_chained(RowRef a, RowRef b, unsigned bits, bool d1_staged,
                                             bool pipelined, const AdaptivePolicy& policy) {
  BPIM_REQUIRE(!d1_staged || pipelined, "D1 staging implies a pipelined chain link");
  return mult_impl(a, b, bits, plan_mult(a, b, bits, policy, d1_staged, pipelined));
}

const BitVector& ImcMacro::mult_rows_planned(RowRef a, RowRef b, unsigned bits,
                                             const MultPlan& plan) {
  BPIM_REQUIRE(plan.depth <= bits, "plan depth exceeds the operand precision");
  BPIM_REQUIRE(!plan.skip || plan.depth == 0, "a skipped MULT runs no iterations");
  BPIM_REQUIRE(!plan.d1_staged || plan.pipelined, "D1 staging implies a pipelined chain link");
  return mult_impl(a, b, bits, plan);
}

namespace {

/// Word masks of the 2N-bit MULT units at precision N. 2N divides 64 at
/// every supported N, so one mask word covers every word of a row.
struct UnitMasks {
  std::uint64_t lsbs;        ///< bit 0 of every unit
  std::uint64_t msbs;        ///< bit 2N-1 of every unit
  std::uint64_t low_halves;  ///< the N-bit operand half of every unit
  std::uint64_t below_msbs;  ///< bits [0, 2N-1) of every unit
  std::uint64_t fill;        ///< one unit of ones: lsb flags * fill broadcasts a flag
};

constexpr UnitMasks make_unit_masks(unsigned bits) {
  const unsigned unit = 2 * bits;
  UnitMasks m{0, 0, 0, 0, unit >= 64 ? ~0ull : (1ull << unit) - 1};
  for (unsigned i = 0; i < 64; i += unit) m.lsbs |= 1ull << i;
  m.msbs = m.lsbs << (unit - 1);
  m.low_halves = m.lsbs * ((1ull << bits) - 1);
  m.below_msbs = m.msbs - m.lsbs;
  return m;
}

// Indexed by log2(N): every supported precision is a power of two <= 32.
constexpr std::array<UnitMasks, 6> kUnitMasks{make_unit_masks(1),  make_unit_masks(2),
                                              make_unit_masks(4),  make_unit_masks(8),
                                              make_unit_masks(16), make_unit_masks(32)};

const UnitMasks& unit_masks(unsigned bits) {
  return kUnitMasks[static_cast<std::size_t>(std::countr_zero(bits))];
}

}  // namespace

MultPlan ImcMacro::plan_mult(RowRef a, RowRef b, unsigned bits, const AdaptivePolicy& policy,
                             bool d1_staged, bool pipelined) const {
  MultPlan plan = MultPlan::full(bits, d1_staged, pipelined);
  if (!policy.enabled()) return plan;
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  const UnitMasks& m = unit_masks(bits);
  const BitVector& row_a = array_.row(a);
  const BitVector& row_b = array_.row(b);
  // A zero multiplicand unit makes every multiplier bit of that unit
  // ineffectual (sum == accumulator == 0 whatever the select bit says). Per
  // word: adding the below-MSB ones to the multiplicand's low halves carries
  // into a unit's MSB iff that unit is nonzero (the halves never reach the
  // MSB, so nothing carries out of a unit). MSB minus LSB flag sets the
  // bits below each flagged MSB -- no borrow crosses a unit -- which keeps
  // the multiplier bits of nonzero units. Phantom units past the row end
  // hold zero multiplier bits, so they cannot contribute.
  // The multiplier's high halves are masked off once, after the loop.
  const unsigned msb_shift = 2 * bits - 1;
  std::uint64_t acc = 0;
  for (std::size_t w = 0; w < row_a.word_count(); ++w) {
    const std::uint64_t nonzero = ((row_a.word(w) & m.low_halves) + m.below_msbs) & m.msbs;
    acc |= row_b.word(w) & (nonzero - (nonzero >> msb_shift));
  }
  acc &= m.low_halves;
  unsigned eff = 0;
  if ((acc & (m.lsbs << (bits - 1))) != 0) {
    eff = bits;  // some unit's multiplier MSB is effectual: nothing narrows
  } else if (acc != 0) {
    // Fold every unit onto the low one (unit-multiple shifts preserve
    // in-field positions); the residue's bit width is the max effectual
    // multiplier depth across the row.
    for (unsigned s = 2 * bits; s < 64; s <<= 1) acc |= acc >> s;
    eff = static_cast<unsigned>(std::bit_width(acc & m.fill));
  }
  if (policy.narrow_precision) plan.depth = eff;
  if (policy.skip_zero && eff == 0) {
    plan.skip = true;
    plan.depth = 0;
  }
  return plan;
}

const BitVector& ImcMacro::mult_impl(RowRef a, RowRef b, unsigned bits, const MultPlan& plan) {
  BPIM_REQUIRE(is_supported_precision(bits), "unsupported precision");
  (void)mult_units_per_row(bits);  // 2N-bit units must tile the row
  const unsigned unit_bits = 2 * bits;
  const UnitMasks& m = unit_masks(bits);
  const RowRef d1 = RowRef::dummy(kDummyOperand);
  const RowRef d2 = RowRef::dummy(kDummyAccum);

  // Cycle 1: zero-init the accumulator row; load the multiplier FFs
  // (MSB-first release order -- the reversed B[3:0] -> B[0:3] of Fig 5).
  drive_.fill(false);
  store(d2, drive_);
  array_.read_single_into(b, sense_);
  ff_ = sense_.bl_and;

  // Cycle 2: copy the multiplicand into the dummy operand row (low halves):
  // mask off the high half of every unit in one word-parallel AND. A
  // d1-staged chain link skips the whole cycle -- the previous MULT of the
  // same multiplicand left exactly this masked copy in D1 (the add-shift
  // iterations only write D2), so neither the read nor the staging
  // write-back happens. A skipped MULT (all products provably zero) elides
  // it too: the zero-initialised accumulator row already IS the result.
  if (!plan.skip && !plan.d1_staged) {
    array_.read_single_into(a, sense_);
    for (std::size_t w = 0; w < drive_.word_count(); ++w)
      drive_.set_word(w, sense_.bl_and.word(w) & m.low_halves);
    store(d1, drive_);
  }

  // Cycles 3..N+2: (N-1) add-and-shift iterations plus the final ADD.
  if (!draws_disturb()) {
    // Closed form: with no disturb to draw, nothing observes the partial
    // products, and D1 stays as it stands through every iteration. Unit u
    // of D2 then ends at D1_u * (FF_u mod 2^depth) mod 2^2N -- the MSB-
    // first add-and-shift of the multiplier's low `depth` bits -- for every
    // plan, hand-built and d1-staged ones included (a staged D1 may hold
    // high-half bits; they multiply in exactly as the iterated adds fold
    // them). One host multiply per unit, one write of D2.
    if (plan.depth > 0) {
      const BitVector& op = array_.row(d1);
      const std::uint64_t depth_mask = (1ull << plan.depth) - 1;
      for (std::size_t w = 0; w < drive_.word_count(); ++w) {
        const std::uint64_t x = op.word(w);
        const std::uint64_t y = ff_.word(w);
        std::uint64_t prod = 0;
        for (unsigned s = 0; s < 64; s += unit_bits)
          prod |= ((((x >> s) & m.fill) * ((y >> s) & depth_mask)) & m.fill) << s;
        drive_.set_word(w, prod);
      }
      store(d2, drive_);
    }
  } else {
    // Iterated: each iteration's dual-WL access draws disturb against
    // D1 XOR D2 as it stands, so the loop steps the hardware sequence.
    // acc <- (ff_bit ? acc + A : acc), shifted left except on the last
    // cycle. Iteration k releases multiplier bit N-1-k of every unit
    // (MSB-first): shifting the FF row down by N-1-k lands that bit on each
    // unit's LSB, and multiplying the LSB flags by a unit of ones broadcasts
    // it into a whole-unit select mask -- one SWAR select per word. The <<1
    // is the word-parallel in-field shift.
    // An adaptive plan starts at k = bits - depth: every dropped leading
    // iteration is a per-unit no-op (multiplier bit zero keeps the still-
    // zero accumulator, and a shift of zero is zero; zero-multiplicand units
    // see sum == accumulator == 0 either way), so products are bit-identical.
    for (unsigned k = bits - plan.depth; k < bits; ++k) {
      const bool last = (k + 1 == bits);
      sense_dual(d1, d2);
      FaLogics::add_into(sense_, unit_bits, false, fa_);
      const BitVector& acc = array_.row(d2);
      const unsigned release = bits - 1 - k;
      for (std::size_t w = 0; w < drive_.word_count(); ++w) {
        const std::uint64_t sel = ((ff_.word(w) >> release) & m.lsbs) * m.fill;
        drive_.set_word(w, (fa_.sum.word(w) & sel) | (acc.word(w) & ~sel));
      }
      if (!last) drive_.shl1_in_fields(unit_bits);  // <<1 via the propagation path
      store(d2, drive_);
    }
  }
  return array_.row(d2);
}

}  // namespace bpim::macro
