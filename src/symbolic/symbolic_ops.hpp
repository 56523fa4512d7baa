// The BDD StateSetOps backend: satisfying sets are BddRef roots over a
// symbolic::TransitionSystem's unprimed state variables, always intersected
// with the reachable set.  The explicit engines work on reachable
// restrictions of M_r, so top, complement, EX, EU and EG here are taken
// relative to reachable() and the engines agree state-for-state — the same
// convention the recursive symbolic checker followed.
//
// Every register the evaluator holds is a BddRef, so the whole register
// file is rooted against garbage collection and dynamic reordering for
// exactly as long as the program's allocator keeps a slot live; inside the
// eu/eg fixpoints each iteration body additionally runs under a
// protect_scope(), so GC and sifting can fire *between* iterations (where
// the BddRef locals cover the live set) but never mid-chain.
#pragma once

#include <cstdint>
#include <memory>

#include "logic/formula.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::symbolic {

class SymbolicStateOps {
 public:
  using Set = BddRef;

  explicit SymbolicStateOps(std::shared_ptr<const TransitionSystem> system);

  /// Universe = the reachable set (checker-rooted for the ops' lifetime).
  [[nodiscard]] Set top() const;
  [[nodiscard]] Set bottom() const;
  [[nodiscard]] Set leaf(const logic::FormulaPtr& f) const;
  /// reach & !s — complement within the reachable universe.
  [[nodiscard]] Set complement(const Set& s) const;
  [[nodiscard]] Set conj(const Set& a, const Set& b) const;
  [[nodiscard]] Set disj(const Set& a, const Set& b) const;
  [[nodiscard]] Set iff(const Set& a, const Set& b) const;

  // Operands come from this backend, so they lie inside reach: EU and EG
  // pass the set they keep (f, resp. Z) as the pre-image's care set
  // instead of intersecting afterwards, as EX passes reach.
  [[nodiscard]] Set ex(const Set& f) const;  // pre_image(f) within reach
  /// E[f U g]: least fixpoint of Z = g | (f & EX Z) from below, frontier
  /// style — only the states added in the previous round are pre-imaged,
  /// mirroring the explicit worklist EU.
  [[nodiscard]] Set eu(const Set& f, const Set& g);
  /// EG f: greatest fixpoint of Z = f & EX Z from above.
  [[nodiscard]] Set eg(const Set& f);

  /// Fixpoint rounds taken by the most recent eu/eg call.
  [[nodiscard]] std::uint64_t last_fixpoint_iterations() const noexcept {
    return last_iterations_;
  }

  [[nodiscard]] const TransitionSystem& system() const noexcept {
    return *system_;
  }

 private:
  std::shared_ptr<const TransitionSystem> system_;
  // Ops-rooted universe: the system caches reachable() too, but holding our
  // own ref keeps it alive even if the system is mutated or outlived —
  // raw Bdd members are exactly what tools/ictl_lint forbids.
  BddRef reach_;
  std::uint64_t last_iterations_ = 0;
};

}  // namespace ictl::symbolic
