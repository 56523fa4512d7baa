// The one evaluation core: a register-machine loop that runs a compiled
// FixpointProgram over any StateSetOps backend.  All three engines —
// explicit, symbolic, naive — execute the identical instruction sequence;
// only the set representation behind the registers differs.
//
// Register values are whole satisfying sets with value semantics (bitsets
// or BddRef roots, so symbolic registers stay GC/reorder-rooted for exactly
// as long as the allocator keeps the slot live).  Every instruction
// computes its result into a temporary before the destination assignment,
// which makes the allocator's in-place destinations (dst == operand slot)
// safe for every backend.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "eval/fixpoint_program.hpp"
#include "eval/state_set_ops.hpp"
#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "rt/failpoint.hpp"
#include "support/error.hpp"

namespace ictl::eval {

template <StateSetOps Ops>
class ProgramEvaluator {
 public:
  explicit ProgramEvaluator(Ops& ops) : ops_(ops) {}

  /// Runs `program` and returns the satisfying set of its root formula.
  [[nodiscard]] typename Ops::Set run(const FixpointProgram& program) {
    std::vector<typename Ops::Set> regs(program.num_registers);
    ++stats_.programs_run;
    if (program.num_registers > stats_.register_high_water)
      stats_.register_high_water = program.num_registers;
    for (const Instruction& in : program.code) {
      // Between-instruction checkpoint: every register is a whole rooted
      // set here, so a budget trip unwinds without leaving partial state.
      // The fixpoint opcodes additionally checkpoint per iteration inside
      // the backend eu/eg loops.
      rt::checkpoint("eval/program");
      ICTL_FAILPOINT("eval/instruction");
      ++stats_.op_count[static_cast<std::size_t>(in.op)];
      // Per-opcode time lives in the profile tree and the trace only; the
      // span is one branch while obs is disabled and nothing when it is
      // compiled out.
      ICTL_PROFILE("eval", opcode_name(in.op));
      typename Ops::Set value = execute(in, program, regs);
      if (is_fixpoint(in.op))
        ICTL_SPAN_ARG("iterations", ops_.last_fixpoint_iterations());
      regs[in.dst] = std::move(value);
    }
    stats_.instructions += program.code.size();
    return std::move(regs[program.result]);
  }

  [[nodiscard]] const EvalStats& stats() const noexcept { return stats_; }

 private:
  typename Ops::Set execute(const Instruction& in, const FixpointProgram& program,
                            std::vector<typename Ops::Set>& regs) {
    switch (in.op) {
      case OpCode::kConstTrue:
        return ops_.top();
      case OpCode::kConstFalse:
        return ops_.bottom();
      case OpCode::kLeaf:
        ++stats_.leaf_evals;
        return ops_.leaf(program.leaves[in.leaf]);
      case OpCode::kNot:
        return ops_.complement(regs[in.a]);
      case OpCode::kAnd:
        return ops_.conj(regs[in.a], regs[in.b]);
      case OpCode::kOr:
        return ops_.disj(regs[in.a], regs[in.b]);
      case OpCode::kIff:
        return ops_.iff(regs[in.a], regs[in.b]);
      case OpCode::kEX:
        return ops_.ex(regs[in.a]);
      case OpCode::kEU: {
        typename Ops::Set value = ops_.eu(regs[in.a], regs[in.b]);
        ++stats_.fixpoint_ops;
        stats_.fixpoint_iterations += ops_.last_fixpoint_iterations();
        return value;
      }
      case OpCode::kEG: {
        typename Ops::Set value = ops_.eg(regs[in.a]);
        ++stats_.fixpoint_ops;
        stats_.fixpoint_iterations += ops_.last_fixpoint_iterations();
        return value;
      }
    }
    throw LogicError("ProgramEvaluator: corrupt opcode");
  }

  Ops& ops_;
  EvalStats stats_;
};

}  // namespace ictl::eval
