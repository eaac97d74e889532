#pragma once
// A whole-program trace built from MacroController::run's result sink, for
// tests that compare every instruction's result row and price:
//   std::vector<TraceEntry> trace;
//   ctl.run(vp, TraceRecorder{vp.program(), trace});

#include <vector>

#include "macro/program.hpp"

namespace bpim::macro {

/// One executed instruction, its result row copied out of the macro.
struct TraceEntry {
  Instruction inst;
  unsigned cycles = 0;
  Joule op_energy{0.0};
  BitVector result;
  unsigned adaptive_cycles_saved = 0;
};

/// Sink that appends one TraceEntry per instruction of `program` to `out`.
struct TraceRecorder {
  const Program& program;
  std::vector<TraceEntry>& out;
  void operator()(std::size_t index, const BitVector& result, const InstructionCost& cost,
                  unsigned adaptive_cycles_saved) const {
    out.push_back(TraceEntry{program.instructions()[index], cost.cycles, cost.energy, result,
                             adaptive_cycles_saved});
  }
};

}  // namespace bpim::macro
