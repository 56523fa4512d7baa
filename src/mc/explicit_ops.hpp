// The explicit-state StateSetOps backend: DynamicBitset satisfying sets
// over a kripke::Structure's CSR transition engine.  These are PR 2's
// fixpoint primitives — frontier-worklist E[f U g] and successor-counting
// elimination EG — now behind the eval::StateSetOps concept so the compiled
// program loop drives them.
//
// The ops own the scratch arena (worklist + counters, pre-reserved at
// construction) that the fixpoints reuse: eu/eg allocate nothing per
// iteration once the owner is warm, which keeps the evaluator's
// allocations-per-formula a small constant independent of structure size.
#pragma once

#include <cstdint>
#include <vector>

#include "kripke/structure.hpp"
#include "logic/formula.hpp"
#include "support/bitset.hpp"

namespace ictl::mc {

class ExplicitStateOps {
 public:
  using Set = support::DynamicBitset;

  explicit ExplicitStateOps(const kripke::Structure& m);

  /// Universe = the whole state space; complement is the plain bit flip.
  [[nodiscard]] Set top() const;
  [[nodiscard]] Set bottom() const;
  [[nodiscard]] Set leaf(const logic::FormulaPtr& f) const;
  [[nodiscard]] Set complement(const Set& s) const;
  [[nodiscard]] Set conj(const Set& a, const Set& b) const;
  [[nodiscard]] Set disj(const Set& a, const Set& b) const;
  [[nodiscard]] Set iff(const Set& a, const Set& b) const;

  [[nodiscard]] Set ex(const Set& f) const;  // EX f: one pre-image
  /// E[f U g]: frontier-based backward reachability from g through
  /// f-states; each state enters the worklist at most once, each transition
  /// is scanned at most once.
  [[nodiscard]] Set eu(const Set& f, const Set& g);
  /// EG f: greatest fixpoint by successor-counting elimination — only the
  /// predecessors of states that leave the set are re-examined, never EX of
  /// the whole candidate set per round.  O(|S| + |R|) total.
  [[nodiscard]] Set eg(const Set& f);

  /// Worklist steps taken by the most recent eu/eg call.
  [[nodiscard]] std::uint64_t last_fixpoint_iterations() const noexcept {
    return last_iterations_;
  }

  [[nodiscard]] const kripke::Structure& structure() const noexcept { return m_; }

 private:
  const kripke::Structure& m_;
  // Scratch arena, reserved to num_states() at construction and reused by
  // every eu/eg call.
  std::vector<kripke::StateId> worklist_;
  std::vector<std::uint32_t> succ_in_count_;
  std::uint64_t last_iterations_ = 0;
};

}  // namespace ictl::mc
