#include "array/sram_array.hpp"

namespace bpim::array {

SramArray::SramArray(const ArrayGeometry& g) : geom_(g) {
  BPIM_REQUIRE(g.rows > 0 && g.cols > 0, "array must be non-empty");
  BPIM_REQUIRE(g.interleave > 0 && g.cols % g.interleave == 0,
               "columns must be a multiple of the interleave factor");
  main_.assign(g.rows, BitVector(g.cols));
  dummy_.assign(g.dummy_rows, BitVector(g.cols));
}

void SramArray::write_row(RowRef r, const BitVector& data) {
  BPIM_REQUIRE(data.size() == geom_.cols, "row width mismatch");
  if (r.kind == RowRef::Kind::Main) {
    BPIM_REQUIRE(r.index < main_.size(), "main row out of range");
    main_[r.index] = data;
  } else {
    BPIM_REQUIRE(r.index < dummy_.size(), "dummy row out of range");
    dummy_[r.index] = data;
  }
}

void SramArray::set(RowRef r, std::size_t col, bool v) {
  BPIM_REQUIRE(col < geom_.cols, "column out of range");
  auto& target = (r.kind == RowRef::Kind::Main) ? main_ : dummy_;
  BPIM_REQUIRE(r.index < target.size(), "row out of range");
  target[r.index].set(col, v);
}

std::uint64_t SramArray::extract_bits(RowRef r, std::size_t col, std::size_t len) const {
  BPIM_REQUIRE(len <= 64 && col + len <= geom_.cols, "column range out of range");
  return row(r).extract_bits(col, len);
}

void SramArray::deposit_bits(RowRef r, std::size_t col, std::size_t len, std::uint64_t value) {
  BPIM_REQUIRE(len <= 64 && col + len <= geom_.cols, "column range out of range");
  auto& target = (r.kind == RowRef::Kind::Main) ? main_ : dummy_;
  BPIM_REQUIRE(r.index < target.size(), "row out of range");
  target[r.index].deposit_bits(col, len, value);
}

void SramArray::compute_dual_into(RowRef a, RowRef b, BlReadout& out) const {
  BPIM_REQUIRE(!(a == b), "dual-WL compute needs two distinct rows");
  if (separated_) {
    BPIM_REQUIRE(a.is_dummy() == b.is_dummy(),
                 "cross-segment dual-WL access while BL separator is open");
  }
  const BitVector& ra = row(a);
  const BitVector& rb = row(b);
  out.bl_and.reset(geom_.cols);
  out.bl_nor.reset(geom_.cols);
  for (std::size_t k = 0; k < ra.word_count(); ++k) {
    out.bl_and.set_word(k, ra.word(k) & rb.word(k));
    out.bl_nor.set_word(k, ~(ra.word(k) | rb.word(k)));
  }
}

void SramArray::read_single_into(RowRef r, BlReadout& out) const {
  const BitVector& data = row(r);
  out.bl_and = data;
  out.bl_nor.reset(geom_.cols);
  for (std::size_t k = 0; k < data.word_count(); ++k) out.bl_nor.set_word(k, ~data.word(k));
}

BlReadout SramArray::compute_dual(RowRef a, RowRef b) const {
  BlReadout out;
  compute_dual_into(a, b, out);
  return out;
}

BlReadout SramArray::read_single(RowRef r) const {
  BlReadout out;
  read_single_into(r, out);
  return out;
}

}  // namespace bpim::array
