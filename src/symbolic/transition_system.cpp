#include "symbolic/transition_system.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "rt/failpoint.hpp"
#include "support/error.hpp"

namespace ictl::symbolic {

TransitionSystem::TransitionSystem(std::shared_ptr<BddManager> mgr,
                                   std::uint32_t num_state_vars, Bdd initial,
                                   std::vector<Bdd> partition,
                                   kripke::PropRegistryPtr registry,
                                   std::vector<std::pair<kripke::PropId, Bdd>> props,
                                   std::vector<std::uint32_t> index_set)
    : mgr_(std::move(mgr)),
      num_state_vars_(num_state_vars),
      registry_(std::move(registry)),
      index_set_(std::move(index_set)) {
  support::require<ModelError>(mgr_ != nullptr, "TransitionSystem: null manager");
  support::require<ModelError>(num_state_vars_ > 0,
                               "TransitionSystem: need at least one state variable");
  support::require<ModelError>(mgr_->num_vars() >= 2 * num_state_vars_,
                               "TransitionSystem: manager owns fewer than "
                               "2 * num_state_vars BDD variables");
  support::require<ModelError>(!partition.empty(),
                               "TransitionSystem: empty transition partition");

  // Root every raw argument: that keeps the retained set alive across
  // garbage collection and makes it what sifting minimizes.
  initial_ = BddRef(*mgr_, initial);
  parts_.reserve(partition.size());
  for (const Bdd part : partition) parts_.emplace_back(*mgr_, part);
  std::sort(props.begin(), props.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  props_.reserve(props.size());
  for (const auto& [prop, fn] : props) props_.emplace_back(prop, BddRef(*mgr_, fn));

#ifdef ICTL_AUDIT
  assert_audit("construction");
#endif
}

TransitionSystem::TransitionSystem(std::shared_ptr<BddManager> mgr,
                                   std::uint32_t num_state_vars, Bdd initial,
                                   Bdd transitions, kripke::PropRegistryPtr registry,
                                   std::vector<std::pair<kripke::PropId, Bdd>> props,
                                   std::vector<std::uint32_t> index_set)
    : TransitionSystem(std::move(mgr), num_state_vars, initial,
                       std::vector<Bdd>{transitions}, std::move(registry),
                       std::move(props), std::move(index_set)) {}

Bdd TransitionSystem::transitions() const {
  if (monolithic_.has_value()) return monolithic_->get();
  // Balanced combine — only materialized when somebody actually asks for
  // the monolithic relation (inspection, tests); images never do.  The
  // scope keeps the raw intermediate layers valid across the combining
  // operations; the final result is rooted before the scope exits.
  const auto scope = mgr_->protect_scope();
  std::vector<Bdd> terms(parts_.begin(), parts_.end());
  while (terms.size() > 1) {
    std::vector<Bdd> next;
    next.reserve(terms.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2)
      next.push_back(mgr_->bdd_or(terms[i], terms[i + 1]));
    if (terms.size() % 2 != 0) next.push_back(terms.back());
    terms = std::move(next);
  }
  monolithic_ = BddRef(*mgr_, terms.front());
  return monolithic_->get();
}

std::size_t TransitionSystem::relation_node_count() const {
  return mgr_->dag_size(std::vector<Bdd>(parts_.begin(), parts_.end()));
}

BddRef TransitionSystem::pre_image(Bdd states, Bdd within) const {
  ICTL_COUNT("sym", "pre_images");
  // One fused kernel call against the combined relation.  Images
  // distribute over the parts, but for this family the combined BDD is
  // small (the parts exist to make BUILDING it cheap and to chain
  // reachability), so the single-step images use the lazy combine.
  return mgr_->pair_pre_image(within, transitions(), states);
}

BddRef TransitionSystem::post_image(Bdd states) const {
  ICTL_COUNT("sym", "post_images");
  return mgr_->pair_post_image(transitions(), states);
}

Bdd TransitionSystem::reachable() const {
  if (reachable_.has_value()) return reachable_->get();
  ICTL_PROFILE_ARG("sym", "reach_fixpoint", "parts", parts_.size());
  BddRef reach = initial_;
  if (parts_.size() > 1) {
    // Chained saturation sweeps: each part is applied to ITS OWN fixpoint
    // before the next part fires (Ravi–Somenzi chaining pushed to
    // saturation).  Rule-wise saturation keeps the intermediate sets far
    // more symmetric — and so far smaller as BDDs — than synchronous
    // breadth-first rounds: the ring's rule-1 closure, for instance, fills
    // in every delayed-mask combination as one compact product before any
    // token movement is explored.
    bool changed = true;
    while (changed) {
      changed = false;
      ICTL_PROFILE("sym", "saturation_sweep");
      ICTL_COUNT("sym", "saturation_sweeps");
      ICTL_FAILPOINT("sym/saturation_sweep");
      for (const BddRef& part : parts_) {
        while (true) {
          // Per-application checkpoint: reach is the only accumulating
          // root, so a trip mid-saturation unwinds to a reusable manager
          // (and reachable_ stays unset — a retry recomputes from scratch).
          rt::charge_iteration("sym/saturation");
          ICTL_COUNT("sym", "post_images");
          BddRef next = mgr_->bdd_or(reach, mgr_->pair_post_image(part, reach));
          if (next.get() == reach.get()) break;
          reach = std::move(next);
          changed = true;
        }
      }
    }
  } else {
    // Frontier iteration: only the newly discovered states are imaged.
    BddRef frontier = initial_;
    while (frontier.get() != kBddFalse) {
      rt::charge_iteration("sym/reach_frontier");
      ICTL_FAILPOINT("sym/reach_round");
      ICTL_COUNT("sym", "frontier_rounds");
      BddRef next = mgr_->bdd_or(reach, post_image(frontier));
      frontier = mgr_->bdd_diff(next, reach);
      reach = std::move(next);
    }
  }
  reachable_ = std::move(reach);
#ifdef ICTL_AUDIT
  assert_audit("reachable fixpoint");
#endif
  return reachable_->get();
}

SatCount TransitionSystem::count_states(Bdd set) const {
  // sat_count_exact ranges over every manager variable; each of the
  // num_state_vars primed variables (absent from a state set's support)
  // doubles the count, as does any extra variable the manager owns.
  SatCount over_all = mgr_->sat_count_exact(set);
  if (!over_all.is_zero())
    over_all.exponent -= static_cast<std::int32_t>(mgr_->num_vars()) -
                         static_cast<std::int32_t>(num_state_vars_);
  return over_all;
}

std::optional<Bdd> TransitionSystem::prop_states(kripke::PropId p) const {
  const auto it = std::lower_bound(
      props_.begin(), props_.end(), p,
      [](const auto& entry, kripke::PropId key) { return entry.first < key; });
  if (it == props_.end() || it->first != p) return std::nullopt;
  return it->second.get();
}

// ---- Deep audit -------------------------------------------------------------

BddManager::AuditReport TransitionSystem::audit() const {
  BddManager::AuditReport report;
  const auto fail = [&](std::string message) {
    report.failures.push_back("TransitionSystem: " + std::move(message));
  };
  const std::uint32_t n = num_state_vars_;

  // Support discipline: state sets live over unprimed variables only, the
  // relation parts over the declared interleaved pairs.
  const auto unprimed_only = [&](Bdd f, const std::string& what) {
    for (const std::uint32_t v : mgr_->support_vars(f)) {
      if (v >= 2 * n)
        fail(what + " mentions BDD variable " + std::to_string(v) +
             " outside the state space");
      else if (v % 2 != 0)
        fail(what + " mentions primed variable " + std::to_string(v));
    }
  };
  unprimed_only(initial_.get(), "initial set");
  for (std::size_t k = 0; k < parts_.size(); ++k)
    for (const std::uint32_t v : mgr_->support_vars(parts_[k]))
      if (v >= 2 * n)
        fail("partition part " + std::to_string(k) + " mentions BDD variable " +
             std::to_string(v) + " outside the declared variable set");
  for (const auto& [prop, fn] : props_)
    unprimed_only(fn.get(), "prop " + std::to_string(prop) + " function");

  // The pair layout the image kernels read: each primed variable sits on
  // the level directly below its unprimed partner.
  bool pairs_adjacent = true;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t top = mgr_->level_of_var(unprimed(v));
    if (mgr_->level_of_var(primed(v)) == top + 1) continue;
    pairs_adjacent = false;
    fail("pair layout broken at state variable " + std::to_string(v) +
         ": primed variable not on the level directly below level " +
         std::to_string(top));
  }

  // Reachable (when computed): a set over unprimed variables containing the
  // initial states and closed under the post image — i.e., a fixpoint.  The
  // closure check images through the kernels, so it needs the pair layout.
  if (reachable_.has_value()) {
    const Bdd reach = reachable_->get();
    unprimed_only(reach, "reachable set");
    if (mgr_->bdd_diff(initial_.get(), reach).get() != kBddFalse)
      fail("initial states escape the reachable set");
    if (pairs_adjacent &&
        mgr_->bdd_diff(post_image(reach), reach).get() != kBddFalse)
      fail("reachable set is not a fixpoint: post_image adds states");
  }
  return report;
}

void TransitionSystem::assert_audit(const char* where) const {
  const BddManager::AuditReport report = audit();
  if (!report.ok())
    throw Error(std::string("TransitionSystem audit failed at ") + where + ":\n" +
                report.to_string());
}

// ---- Generic explicit-to-symbolic bridge ------------------------------------

Bdd state_minterm(BddManager& mgr, std::uint32_t num_state_vars, kripke::StateId s,
                  bool primed) {
  // Build bottom-up through the hash-consed node constructor, deepest
  // CURRENT level first, so every make_node call is already in order: one
  // node per bit, no ITE recursion, any variable order.
  std::vector<std::uint32_t> vars(num_state_vars);
  for (std::uint32_t v = 0; v < num_state_vars; ++v)
    vars[v] = primed ? TransitionSystem::primed(v) : TransitionSystem::unprimed(v);
  std::sort(vars.begin(), vars.end(), [&](std::uint32_t a, std::uint32_t b) {
    return mgr.level_of_var(a) > mgr.level_of_var(b);
  });
  Bdd acc = kBddTrue;
  for (const std::uint32_t bdd_var : vars) {
    const bool bit = ((s >> (bdd_var / 2)) & 1u) != 0;
    acc = bit ? mgr.make_node(bdd_var, kBddFalse, acc)
              : mgr.make_node(bdd_var, acc, kBddFalse);
  }
  return acc;
}

namespace {

/// Balanced OR over a list — keeps intermediate BDDs small compared to a
/// left fold when the disjuncts are minterm-like.  Raw handles: callers
/// hold a protect_scope.
Bdd or_all(BddManager& mgr, std::vector<Bdd> terms) {
  if (terms.empty()) return kBddFalse;
  while (terms.size() > 1) {
    std::vector<Bdd> next;
    next.reserve(terms.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2)
      next.push_back(mgr.bdd_or(terms[i], terms[i + 1]));
    if (terms.size() % 2 != 0) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms.front();
}

}  // namespace

TransitionSystem from_structure(const kripke::Structure& m,
                                std::shared_ptr<BddManager> mgr) {
  const std::size_t n = m.num_states();
  support::require<ModelError>(n > 0, "from_structure: empty structure");
  support::require<ModelError>(m.initial() != kripke::kNoState,
                               "from_structure: structure has no initial state");
  std::uint32_t bits = 1;
  while ((std::size_t{1} << bits) < n) ++bits;

  if (mgr == nullptr) mgr = std::make_shared<BddManager>(2 * bits);
  support::require<ModelError>(mgr->num_vars() >= 2 * bits,
                               "from_structure: manager owns too few variables");

  // The whole build runs on raw handles under one scope; the
  // TransitionSystem constructor roots what it retains before the scope
  // exits.
  const auto scope = mgr->protect_scope();

  // Transition relation: per source state, one minterm AND the balanced OR
  // of its successors' primed minterms.
  std::vector<Bdd> rows;
  rows.reserve(n);
  for (kripke::StateId s = 0; s < n; ++s) {
    const auto succs = m.successors(s);
    if (succs.empty()) continue;
    std::vector<Bdd> targets;
    targets.reserve(succs.size());
    for (const kripke::StateId t : succs)
      targets.push_back(state_minterm(*mgr, bits, t, /*primed=*/true));
    rows.push_back(mgr->bdd_and(state_minterm(*mgr, bits, s, /*primed=*/false),
                                or_all(*mgr, std::move(targets))));
  }
  const Bdd transitions = or_all(*mgr, std::move(rows));

  // Per-prop characteristic functions from the label columns.
  std::vector<std::pair<kripke::PropId, Bdd>> props;
  for (const kripke::PropId p : m.used_props()) {
    std::vector<Bdd> holders;
    m.states_with(p).for_each([&](std::size_t s) {
      holders.push_back(
          state_minterm(*mgr, bits, static_cast<kripke::StateId>(s), false));
    });
    props.emplace_back(p, or_all(*mgr, std::move(holders)));
  }

  const Bdd initial = state_minterm(*mgr, bits, m.initial(), /*primed=*/false);
  std::vector<std::uint32_t> indices(m.index_set().begin(), m.index_set().end());
  return TransitionSystem(std::move(mgr), bits, initial, transitions, m.registry(),
                          std::move(props), std::move(indices));
}

}  // namespace ictl::symbolic
