#pragma once
// Functional model of the column-peripheral "FA-Logics" block (paper Fig 3).
//
// Inputs per column are the two single-ended SA outputs of a BL compute:
//   bl_and = A AND B   (BLT survives only if no accessed cell stores 0)
//   bl_nor = NOR(A,B)  (BLB survives only if no accessed cell stores 1)
// (single-WL accesses give bl_and = A, bl_nor = NOT A).
//
// From these, four transmission gates, an OR gate and three inverters derive
// every 2-input logic function, and the carry-select full adder of the
// paper's eq. (1)-(2) computes sums:
//
//   S[n]    = C[n-1] ? XNOR(A,B)[n] : XOR(A,B)[n]
//   C[n]    = C[n-1] ? (A|B)[n]     : (A&B)[n]
//
// Both candidate pairs exist before the carry arrives, so the ripple path is
// one transmission-gate mux per bit (the 1.8-2.2x critical-path win of
// Fig 7b; timing lives in timing/fa_timing).
//
// The carry chain spans the whole row of peripheral units; MX3 switches cut
// it at every `precision` boundary so the row computes cols/precision
// independent words per cycle (the reconfigurable bit-precision of Fig 6).
//
// The model evaluates the whole chain word-parallel (SWAR): the carry-select
// recurrence above is exactly binary addition of P = bl_and and Q = ~bl_nor
// (P+Q = A+B with the identical carry chain, since P^Q = A^B and P&Q = A&B),
// so one partitioned 64-bit add per storage word -- field-MSB masks cut the
// carries at precision boundaries exactly like the MX3 mux -- replaces the
// seed's per-bit ripple loop. The per-bit carry vector is recovered from the
// adder identity carries_in = a ^ b ^ sum. Bit-identical to the per-bit
// reference (baseline/naive_datapath, checked by tests/test_hot_path_diff).

#include "array/sram_array.hpp"
#include "common/bitvec.hpp"

namespace bpim::periph {

/// Logic functions the Y-path can emit in one cycle (Table 1, logic group).
enum class LogicFn { And, Nand, Or, Nor, Xor, Xnor, PassA, NotA };

[[nodiscard]] const char* to_string(LogicFn fn);

/// Result of the segmented carry-select addition across a row.
struct AddResult {
  BitVector sum;        ///< per-column sum bits
  BitVector carry;      ///< per-column carry-out bits (C[n] of every stage)
  BitVector word_carry; ///< carry-out of each word, packed at the word's MSB column
};

class FaLogics {
 public:
  /// Emit a logic function of the accessed row(s) from the SA outputs.
  [[nodiscard]] static BitVector logic(const array::BlReadout& r, LogicFn fn);
  /// As logic(), into `out`'s storage (the macro's output latch).
  static void logic_into(const array::BlReadout& r, LogicFn fn, BitVector& out);

  /// Segmented ripple (carry-select) addition. `precision` must divide the
  /// readout width; `carry_in` seeds every word segment (1 implements the
  /// +1 of two's-complement subtraction).
  [[nodiscard]] static AddResult add(const array::BlReadout& r, unsigned precision,
                                     bool carry_in);

  /// As add(), but reuses `out`'s storage -- the macro adds into its FA
  /// latch on every ADD/SUB and MULT iteration and must not allocate.
  static void add_into(const array::BlReadout& r, unsigned precision, bool carry_in,
                       AddResult& out);

  /// XOR derived from the two SA outputs: ~(bl_and | bl_nor).
  [[nodiscard]] static BitVector xor_bits(const array::BlReadout& r);
  /// XNOR: bl_and | bl_nor.
  [[nodiscard]] static BitVector xnor_bits(const array::BlReadout& r);
};

}  // namespace bpim::periph
