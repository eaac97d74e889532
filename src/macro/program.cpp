#include "macro/program.hpp"

#include <sstream>

#include "common/require.hpp"
#include "macro/cost_model.hpp"
#include "macro/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bpim::macro {

namespace {

// Adaptive-execution instruments, resolved once (stable addresses, lock-free
// updates thereafter): how often the policy fires, what it saves, and the
// narrowed-depth distribution (full-depth MULTs observe bits).
obs::Counter& adaptive_mults_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "engine.adaptive.mults", "MULTs executed under an enabled adaptive policy");
  return c;
}

obs::Counter& adaptive_skipped_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "engine.adaptive.skipped", "MULTs skipped outright (all products provably zero)");
  return c;
}

obs::Counter& adaptive_saved_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "engine.adaptive.cycles_saved", "modeled cycles saved by adaptive narrowing/skipping");
  return c;
}

obs::Histogram& adaptive_depth_histogram() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "engine.adaptive.narrowed_depth", "executed add-shift depth per adaptive MULT");
  return h;
}

}  // namespace

std::string to_string(const array::RowRef& r) {
  std::string name(1, r.is_dummy() ? 'D' : 'R');
  name += std::to_string(r.index);
  return name;
}

std::string to_string(const Instruction& inst) {
  std::ostringstream os;
  os << to_string(inst.op);
  if (inst.op == Op::Nand || inst.op == Op::And || inst.op == Op::Nor || inst.op == Op::Or ||
      inst.op == Op::Xnor || inst.op == Op::Xor)
    os << "(" << periph::to_string(inst.logic_fn) << ")";
  os << " " << to_string(inst.a);
  if (is_dual_wl(inst.op)) os << ", " << to_string(inst.b);
  if (inst.dest) os << " -> " << to_string(*inst.dest);
  os << " @" << inst.bits << "b";
  return os.str();
}

Program& Program::logic(periph::LogicFn fn, array::RowRef a, array::RowRef b) {
  BPIM_REQUIRE(fn != periph::LogicFn::PassA && fn != periph::LogicFn::NotA,
               "PassA/NotA are single-WL paths; use unary(COPY/NOT)");
  Instruction i;
  i.op = Op::And;  // representative dual-WL logic op; fn carries the function
  i.logic_fn = fn;
  i.a = a;
  i.b = b;
  instructions_.push_back(i);
  return *this;
}

Program& Program::unary(Op op, array::RowRef src, array::RowRef dest, unsigned bits) {
  BPIM_REQUIRE(op == Op::Not || op == Op::Copy || op == Op::Shift,
               "unary() takes NOT/COPY/SHIFT");
  Instruction i;
  i.op = op;
  i.a = src;
  i.dest = dest;
  i.bits = bits;
  instructions_.push_back(i);
  return *this;
}

Program& Program::add(array::RowRef a, array::RowRef b, unsigned bits,
                      std::optional<array::RowRef> dest) {
  Instruction i;
  i.op = Op::Add;
  i.a = a;
  i.b = b;
  i.bits = bits;
  i.dest = dest;
  instructions_.push_back(i);
  return *this;
}

Program& Program::add_shift(array::RowRef a, array::RowRef b, unsigned bits,
                            array::RowRef dest) {
  Instruction i;
  i.op = Op::AddShift;
  i.a = a;
  i.b = b;
  i.bits = bits;
  i.dest = dest;
  instructions_.push_back(i);
  return *this;
}

Program& Program::sub(array::RowRef a, array::RowRef b, unsigned bits) {
  Instruction i;
  i.op = Op::Sub;
  i.a = a;
  i.b = b;
  i.bits = bits;
  instructions_.push_back(i);
  return *this;
}

Program& Program::mult(array::RowRef a, array::RowRef b, unsigned bits) {
  Instruction i;
  i.op = Op::Mult;
  i.a = a;
  i.b = b;
  i.bits = bits;
  instructions_.push_back(i);
  return *this;
}

std::uint64_t Program::static_cycles() const {
  std::uint64_t c = 0;
  for (const auto& i : instructions_) c += op_cycles(i.op, i.bits);
  return c;
}

std::string Program::dump() const {
  std::ostringstream os;
  for (std::size_t k = 0; k < instructions_.size(); ++k) {
    const Instruction& i = instructions_[k];
    os << "#" << k << "\t" << to_string(i);
    switch (i.op) {
      case Op::Mult:
        os << "\t; D1 <- masked a, FF <- b, product -> D2";
        break;
      case Op::Sub:
        os << "\t; D1 <- ~b, difference driven out";
        break;
      case Op::Add:
        if (!i.dest) os << "\t; sum driven out";
        break;
      case Op::AddShift:
        os << "\t; (a+b)<<1 in-field";
        break;
      default:
        break;
    }
    os << "\n";
  }
  return os.str();
}

ProgramStats MacroController::run(const VerifiedProgram& vp, ResultSink sink,
                                  bool fuse_mac_chains, const AdaptivePolicy& policy) {
  // The verifier checked every row, role and precision against the
  // program's geometry; the only thing left to check is that this macro has
  // that geometry.
  BPIM_REQUIRE(vp.geometry() == macro_.config().geometry,
               "program was verified against a different array geometry");
  const Program& p = vp.program();
  // The instruction stream is the one account: every instruction is priced
  // by the macro's cost model (cycles from timing/, joules from energy/),
  // built once with the macro. The datapath computes values and disturb
  // only; tests replay its charge sequence against these prices.
  const CostModel& cost = macro_.cost_model();
  ProgramStats stats;
  const Instruction* prev = nullptr;
  // What the masked-copy dummy row D1 currently holds. A MULT whose staging
  // cycle executes records its multiplicand here; a skipped or d1-staged
  // MULT leaves it alone (the add-shift iterations only write D2); SUB and
  // any explicit write to D1 clobber it. Fusion's D1-reuse discount keys off
  // this rather than just the previous instruction, because under zero-skip
  // the MULT that *would* have staged may not have -- reusing D1 then would
  // multiply by stale data.
  struct {
    array::RowRef row{};
    unsigned bits = 0;
    bool valid = false;
  } staged;
  const array::RowRef d1_row = array::RowRef::dummy(ImcMacro::kDummyOperand);
  for (std::size_t k = 0; k < p.size(); ++k) {
    const Instruction& i = p.instructions()[k];
    const BitVector* result = nullptr;  // the macro's latch; valid until its next op
    InstructionCost priced;
    MultPlan plan;
    unsigned adaptive = 0;
    switch (i.op) {
      case Op::Nand:
      case Op::And:
      case Op::Nor:
      case Op::Or:
      case Op::Xnor:
      case Op::Xor:
        priced = cost.instruction_cost(i, fuse_mac_chains ? prev : nullptr);
        result = &macro_.logic_rows(i.logic_fn, i.a, i.b);
        break;
      case Op::Not:
      case Op::Copy:
      case Op::Shift:
        priced = cost.instruction_cost(i, fuse_mac_chains ? prev : nullptr);
        result = &macro_.unary_row(i.op, i.a, *i.dest, i.bits);
        break;
      case Op::Add:
        priced = cost.instruction_cost(i, fuse_mac_chains ? prev : nullptr);
        result = &macro_.add_rows(i.a, i.b, i.bits, i.dest);
        break;
      case Op::AddShift:
        priced = cost.instruction_cost(i, fuse_mac_chains ? prev : nullptr);
        result = &macro_.add_shift_rows(i.a, i.b, i.bits, *i.dest);
        break;
      case Op::Sub:
        priced = cost.instruction_cost(i, fuse_mac_chains ? prev : nullptr);
        result = &macro_.sub_rows(i.a, i.b, i.bits);
        break;
      case Op::Mult: {
        // Chain discount: a MULT directly after a MULT at the same precision
        // loads its FF while the predecessor's final D2 write-back drains;
        // if D1 still holds this multiplicand's masked copy, the staging
        // cycle drops out as well. The adaptive policy then narrows/skips
        // against the operand data; the one resolved plan drives pricing,
        // execution, and the savings split alike.
        const bool pipelined =
            fuse_mac_chains && prev != nullptr && prev->op == Op::Mult && prev->bits == i.bits;
        const bool d1_staged =
            pipelined && staged.valid && staged.row == i.a && staged.bits == i.bits;
        plan = macro_.plan_mult(i.a, i.b, i.bits, policy, d1_staged, pipelined);
        priced = cost.instruction_cost(i, plan);
        result = &macro_.mult_rows_planned(i.a, i.b, i.bits, plan);
        adaptive = plan.adaptive_cycles_saved(i.bits);
        break;
      }
    }
    ++stats.instructions;
    stats.cycles += priced.cycles;
    const unsigned table_cycles = op_cycles(i.op, i.bits);
    if (i.op == Op::Mult) {
      const unsigned fused = plan.fused_cycles_saved();
      BPIM_REQUIRE(priced.cycles + fused + adaptive == table_cycles,
                   "MULT cycle conservation violated (static != cycles + fused + adaptive)");
      stats.fused_cycles_saved += fused;
      stats.adaptive_cycles_saved += adaptive;
      if (policy.enabled()) {
        adaptive_mults_counter().add();
        if (plan.skip) adaptive_skipped_counter().add();
        if (adaptive > 0) adaptive_saved_counter().add(adaptive);
        adaptive_depth_histogram().observe(plan.depth);
      }
      // Track what D1 holds after this MULT for the next link's reuse test.
      if (plan.staging_cycles() > 0) {
        staged.row = i.a;
        staged.bits = i.bits;
        staged.valid = true;
      }
    } else if (i.op == Op::Sub || (i.dest && *i.dest == d1_row)) {
      staged.valid = false;  // D1 clobbered (SUB stages ~b there; dest hit it)
    } else {
      if (table_cycles > priced.cycles) stats.fused_cycles_saved += table_cycles - priced.cycles;
    }
    stats.energy += priced.energy;
    if (sink) sink(k, *result, priced, adaptive);
    prev = &i;
  }
  stats.elapsed = cost.cycle_time() * static_cast<double>(stats.cycles);
#if BPIM_OBS_ENABLED
  // Per-program events are high volume (one per macro per batch step), so
  // they stay behind the extra macro-events gate; a bench opts in when it
  // wants the microscope view.
  if (auto& session = obs::TraceSession::global(); session.macro_events_on()) {
    session.instant("macro.program", 0,
                    obs::EventArgs{{"instructions", static_cast<double>(stats.instructions)},
                                   {"cycles", static_cast<double>(stats.cycles)},
                                   {"fused_cycles_saved",
                                    static_cast<double>(stats.fused_cycles_saved)},
                                   {"adaptive_cycles_saved",
                                    static_cast<double>(stats.adaptive_cycles_saved)}});
  }
#endif
  return stats;
}

}  // namespace bpim::macro
