// Stuttering equivalence by signature-based partition refinement
// (Groote–Vaandrager style, adapted to Kripke structures).
//
// CTL* without the nexttime operator cannot distinguish a state from a
// finite block of identically labeled states (paper Section 3); stuttering
// equivalence is the partition-level counterpart of that idea.  The
// divergence-blind variant over-approximates the paper's finite
// correspondence relation — every pair of states related by some
// correspondence relation lies in a common stuttering class — which makes it
// a sound and fast pre-filter for the exact degree fixpoint
// (bisim/correspondence.hpp); the ablation benchmark measures the payoff.
//
// With `divergence_sensitive`, states that can stutter forever inside their
// own class are separated from states that cannot, which is the right notion
// when matching must eventually make joint progress.
//
// Each refinement round does its signature work once: an iterative Tarjan
// pass over the inert transitions (those staying inside their source's
// block) emits the inert SCCs in reverse topological order, so an SCC's exit
// signature is the union of its members' direct exits and the signatures of
// the SCCs it reaches, all final by then; divergence (a nontrivial SCC, an
// inert self-loop, or an inert edge into a divergent SCC) falls out of the
// same pass.  The pass is O(states + transitions) set work per round.
#pragma once

#include <vector>

#include "bisim/partition.hpp"
#include "kripke/structure.hpp"

namespace ictl::bisim {

struct StutteringOptions {
  bool divergence_sensitive = false;
};

/// Coarsest stuttering-equivalence partition of `m`: initial split by
/// labels, refined by the set of classes reachable through a (possibly
/// empty) run of same-class states followed by one exiting transition.
/// Attaches the number of refinement rounds as `rounds` to the innermost
/// open profile span (find_correspondence's `bisim/stuttering_prefilter`).
[[nodiscard]] Partition stuttering_partition(const kripke::Structure& m,
                                             StutteringOptions options = {});

/// States with an infinite inert run under `p` (a path that stays inside the
/// state's own block forever), computed by the same SCC pass.
[[nodiscard]] std::vector<bool> divergent_states(const kripke::Structure& m,
                                                 const Partition& p);

/// True when the initial states of `a` and `b` are stuttering-equivalent
/// (computed on the disjoint union; the structures must share a registry).
[[nodiscard]] bool stuttering_equivalent(const kripke::Structure& a,
                                         const kripke::Structure& b,
                                         StutteringOptions options = {});

}  // namespace ictl::bisim
