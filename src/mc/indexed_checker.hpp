// High-level entry points for checking (indexed) CTL* formulas on a
// structure, including the paper's Theorem 5 precondition check: a verdict
// transfers between corresponding structures only for closed formulas of the
// *restricted* logic (Section 4).
#pragma once

#include "kripke/structure.hpp"
#include "logic/classify.hpp"
#include "logic/formula.hpp"
#include "mc/ctlstar_checker.hpp"

namespace ictl::mc {

struct IndexedCheckResult {
  /// Verdict at the initial state.
  bool holds = false;
  /// Report on the Section 4 restrictions.  When `!restrictions.ok()`, the
  /// verdict is still meaningful for THIS structure, but Theorem 5 does not
  /// license transferring it to a corresponding structure of another size.
  logic::RestrictionReport restrictions;
  /// Number of states satisfying the formula.
  std::size_t satisfying_states = 0;
};

/// Checks `f` on `m` (initial-state verdict plus restriction report).
[[nodiscard]] IndexedCheckResult check_indexed(const kripke::Structure& m,
                                               const logic::FormulaPtr& f);

/// Convenience: initial-state verdict only.
[[nodiscard]] bool holds(const kripke::Structure& m, const logic::FormulaPtr& f);

}  // namespace ictl::mc
