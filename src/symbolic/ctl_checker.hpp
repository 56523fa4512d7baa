// CTL model checking by symbolic fixpoints (McMillan-style) over a
// symbolic::TransitionSystem — the BDD twin of mc::CtlChecker, behind the
// same hash-consed formula AST and the same CTL fragment.
//
// The checker is a thin façade over the compiled evaluation core
// (src/eval): formulas compile once into flat FixpointPrograms — the *same*
// programs the explicit and naive engines run — and the ProgramEvaluator
// executes them over SymbolicStateOps, whose registers are BddRef roots
// (GC/reorder-safe for exactly as long as a slot is live) and whose
// fixpoint instructions run frontier EU and gfp EG with protect_scope()
// around each iteration body.
//
// Satisfying sets are BDDs over the system's unprimed state variables,
// always intersected with the reachable set: the explicit engine works on
// M_r's reachable restriction, so complement, EX, EU and EG here are taken
// relative to reachable() and the two engines agree state-for-state.
//
// Memoization is keyed on hash-consed node identity (logic::Formula::id),
// exactly like the explicit checkers, so a formula DAG shared across
// engines costs each sub-DAG once per engine.
#pragma once

#include <memory>
#include <unordered_map>

#include "eval/program_compiler.hpp"
#include "eval/program_evaluator.hpp"
#include "logic/formula.hpp"
#include "symbolic/symbolic_ops.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::obs {
class Registry;  // obs/obs.hpp — publish_stats bridges into the registry
}

namespace ictl::symbolic {

struct CtlCheckerOptions {
  /// When false, an atom without a characteristic function raises
  /// LogicError; when true it is treated as false in every state.
  bool unknown_atoms_are_false = false;
};

class CtlChecker {
 public:
  explicit CtlChecker(std::shared_ptr<const TransitionSystem> system,
                      CtlCheckerOptions options = {});

  /// Satisfying set (as a BDD over unprimed state variables, within the
  /// reachable states) of a CTL state formula.  Index quantifiers are
  /// expanded over the system's index set.  Throws LogicError outside the
  /// CTL fragment or on free index variables.
  [[nodiscard]] Bdd sat(const logic::FormulaPtr& f);

  /// True when every initial state satisfies `f`.
  [[nodiscard]] bool holds_initially(const logic::FormulaPtr& f);

  /// The compiled program for `f` (cached, shared with every engine that
  /// compiles the same formula DAG against the same index set).
  [[nodiscard]] std::shared_ptr<const eval::FixpointProgram> program(
      const logic::FormulaPtr& f);

  [[nodiscard]] const TransitionSystem& system() const noexcept { return *system_; }

  /// Compile-side counters (programs compiled, cache and CSE hits).
  [[nodiscard]] const eval::ProgramCompiler::Stats& compile_stats() const noexcept {
    return compiler_.stats();
  }
  /// Run-side counters (instructions executed, fixpoint iterations,
  /// register high-water mark) accumulated across every sat() call.
  [[nodiscard]] const eval::EvalStats& eval_stats() const noexcept {
    return evaluator_.stats();
  }

  /// Mirrors both stats blocks into `registry` under "sym/eval" and
  /// "sym/compile", plus the owning BddManager's counters under "bdd" —
  /// the symbolic engine's full view in one unified export.
  void publish_stats(obs::Registry& registry) const;

 private:
  std::shared_ptr<const TransitionSystem> system_;
  eval::ProgramCompiler compiler_;
  SymbolicStateOps ops_;
  eval::ProgramEvaluator<SymbolicStateOps> evaluator_;
  // Result memo keyed on hash-consed node identity; the BddRef values root
  // every memoized satisfying set (sat() hands out raw handles because the
  // memo keeps them rooted for the checker's lifetime), and the compiler's
  // program cache retains the formulas so rebuilds keep hitting.
  std::unordered_map<std::uint64_t, BddRef> memo_;
};

}  // namespace ictl::symbolic
