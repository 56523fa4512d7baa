// CTL model checking by symbolic fixpoints (McMillan-style) over a
// symbolic::TransitionSystem — the BDD twin of mc::CtlChecker, behind the
// same hash-consed formula AST, the same CTL fragment, and the same
// compiled-core façade (eval::CompiledChecker): formulas compile once into
// the *same* FixpointPrograms the explicit and naive engines run, executed
// over SymbolicStateOps, whose registers are BddRef roots (GC/reorder-safe
// for exactly as long as a slot is live) and whose fixpoint instructions
// run frontier EU and gfp EG with protect_scope() around each iteration
// body.
//
// Satisfying sets are BDDs over the system's unprimed state variables,
// always intersected with the reachable set: the explicit engine works on
// M_r's reachable restriction, so complement, EX, EU and EG here are taken
// relative to reachable() and the two engines agree state-for-state.
#pragma once

#include <memory>
#include <utility>

#include "eval/compiled_checker.hpp"
#include "logic/formula.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "symbolic/symbolic_ops.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::symbolic {

class CtlChecker : public eval::CompiledChecker<SymbolicStateOps> {
 public:
  explicit CtlChecker(std::shared_ptr<const TransitionSystem> system)
      : CompiledChecker("sym", non_null(system).index_set(), std::move(system)) {}

  /// Satisfying set (as a BDD over unprimed state variables, within the
  /// reachable states) of a CTL state formula.  The handle stays valid for
  /// the checker's lifetime: the memo roots it.
  [[nodiscard]] Bdd sat(const logic::FormulaPtr& f) {
    return CompiledChecker::sat(f).get();
  }

  /// True when every initial state satisfies `f`.
  [[nodiscard]] bool holds_initially(const logic::FormulaPtr& f) {
    const Bdd satisfying = sat(f);
    return system().manager().bdd_diff(system().initial(), satisfying).get() ==
           kBddFalse;
  }

  [[nodiscard]] const TransitionSystem& system() const noexcept {
    return ops().system();
  }

  /// The compiled core's "sym/eval" and "sym/compile" keys, plus the owning
  /// BddManager's counters under "bdd" — the symbolic engine's full view.
  void publish_stats(obs::Registry& registry) const {
    CompiledChecker::publish_stats(registry);
    system().manager().publish_stats(registry);
  }

 private:
  static const TransitionSystem& non_null(
      const std::shared_ptr<const TransitionSystem>& system) {
    support::require<ModelError>(system != nullptr, "CtlChecker: null system");
    return *system;
  }
};

}  // namespace ictl::symbolic
