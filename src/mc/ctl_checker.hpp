// CTL model checking by state labeling (Clarke, Emerson & Sistla 1986) —
// the algorithm the paper applies to the two-process mutual exclusion
// structure in Section 5.
//
// Works on the CTL fragment (see logic::is_ctl): booleans and index
// quantifiers over state formulas with path quantifiers applied directly to
// F/G/U/R.  The checker is the compiled evaluation core's façade
// (eval::CompiledChecker) over ExplicitStateOps — bitset primitives on the
// structure's CSR transition engine: EX via Structure::pre_image, E[f U g]
// by frontier-based backward reachability, EG f by successor-counting
// elimination.  Every other connective reduces to these through the
// standard dualities, applied at compile time.  Linear-time in |S| + |R|
// per formula node.
//
// The backend owns a scratch arena (worklist + counters, pre-reserved at
// construction) that the fixpoint instructions reuse, so sat() performs no
// heap allocation per fixpoint iteration once the checker is warm.
#pragma once

#include "eval/compiled_checker.hpp"
#include "kripke/structure.hpp"
#include "logic/formula.hpp"
#include "mc/explicit_ops.hpp"
#include "support/bitset.hpp"
#include "support/error.hpp"

namespace ictl::mc {

using SatSet = support::DynamicBitset;
using CtlCheckerOptions = eval::CtlCheckerOptions;

/// sat(f) is the satisfying set over the whole state space; publish_stats
/// writes under "mc/eval" and "mc/compile".
class CtlChecker : public eval::CompiledChecker<ExplicitStateOps> {
 public:
  explicit CtlChecker(const kripke::Structure& m, CtlCheckerOptions options = {})
      : CompiledChecker("mc", m.index_set(), m, options.unknown_atoms_are_false) {
    support::require<ModelError>(m.is_total(),
                                 "CtlChecker: transition relation must be total");
  }

  /// True when the initial state satisfies `f`.
  [[nodiscard]] bool holds_initially(const logic::FormulaPtr& f) {
    return sat(f).test(structure().initial());
  }

  [[nodiscard]] const kripke::Structure& structure() const noexcept {
    return ops().structure();
  }
};

}  // namespace ictl::mc
