#include "bisim/correspondence.hpp"

#include <algorithm>
#include <limits>

#include "bisim/stuttering.hpp"
#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "rt/failpoint.hpp"
#include "support/bitset.hpp"
#include "support/error.hpp"

namespace ictl::bisim {

using kripke::StateId;

CorrespondenceRelation::CorrespondenceRelation(const kripke::Structure& m1,
                                               const kripke::Structure& m2)
    : m1_(&m1), m2_(&m2) {
  support::require<ModelError>(m1.registry() == m2.registry(),
                               "CorrespondenceRelation: structures must share a "
                               "proposition registry");
}

void CorrespondenceRelation::add(StateId s, StateId s2, std::uint32_t degree) {
  support::require<ModelError>(s < m1_->num_states() && s2 < m2_->num_states(),
                               "CorrespondenceRelation::add: state out of range");
  support::require<ModelError>(degree != kNoDegree,
                               "CorrespondenceRelation::add: invalid degree");
  auto [it, inserted] = min_degree_.try_emplace(key(s, s2), degree);
  if (!inserted) it->second = std::min(it->second, degree);
}

bool CorrespondenceRelation::related(StateId s, StateId s2) const {
  return min_degree_.count(key(s, s2)) > 0;
}

std::optional<std::uint32_t> CorrespondenceRelation::min_degree(StateId s,
                                                                StateId s2) const {
  if (auto it = min_degree_.find(key(s, s2)); it != min_degree_.end())
    return it->second;
  return std::nullopt;
}

std::vector<std::tuple<StateId, StateId, std::uint32_t>>
CorrespondenceRelation::entries() const {
  std::vector<std::tuple<StateId, StateId, std::uint32_t>> out;
  out.reserve(min_degree_.size());
  const std::uint64_t n2 = m2_->num_states();
  for (const auto& [k, deg] : min_degree_)
    out.emplace_back(static_cast<StateId>(k / n2), static_cast<StateId>(k % n2), deg);
  std::sort(out.begin(), out.end());
  return out;
}

bool labels_equal(const kripke::Structure& m1, StateId s, const kripke::Structure& m2,
                  StateId s2) {
  // Widths can differ when the shared registry grew between builds; compare
  // word-parallel and width-agnostically (no allocation: this runs O(n1*n2)
  // times during candidate generation).
  return m1.label(s).same_bits(m2.label(s2));
}

bool CorrespondenceRelation::clause_2b(StateId s, StateId s2, std::uint32_t k) const {
  // First disjunct: s' can advance while s stays, with a strictly smaller
  // degree:  ∃s1' in succ(s2): min_degree(s, s1') < k.
  for (const StateId t2 : m2_->successors(s2)) {
    if (const auto d = min_degree(s, t2); d.has_value() && *d < k) return true;
  }
  // Second disjunct: every move of s is answered.
  for (const StateId t : m1_->successors(s)) {
    if (const auto d = min_degree(t, s2); d.has_value() && *d < k) continue;
    bool matched = false;
    for (const StateId t2 : m2_->successors(s2)) {
      if (related(t, t2)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

bool CorrespondenceRelation::clause_2c(StateId s, StateId s2, std::uint32_t k) const {
  for (const StateId t : m1_->successors(s)) {
    if (const auto d = min_degree(t, s2); d.has_value() && *d < k) return true;
  }
  for (const StateId t2 : m2_->successors(s2)) {
    if (const auto d = min_degree(s, t2); d.has_value() && *d < k) continue;
    bool matched = false;
    for (const StateId t : m1_->successors(s)) {
      if (related(t, t2)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

std::vector<CorrespondenceRelation::Violation> CorrespondenceRelation::validate(
    std::size_t max_violations) const {
  std::vector<Violation> violations;
  auto report = [&](StateId s, StateId s2, std::uint32_t degree, std::string reason) {
    if (violations.size() < max_violations)
      violations.push_back({s, s2, degree, std::move(reason)});
  };

  // Clause 1: initial states related.
  if (!related(m1_->initial(), m2_->initial()))
    report(m1_->initial(), m2_->initial(), 0,
           "clause 1: initial states are not related");

  // Totality for both state spaces.
  {
    std::vector<bool> hit1(m1_->num_states(), false), hit2(m2_->num_states(), false);
    const std::uint64_t n2 = m2_->num_states();
    for (const auto& [k, deg] : min_degree_) {
      static_cast<void>(deg);
      hit1[static_cast<std::size_t>(k / n2)] = true;
      hit2[static_cast<std::size_t>(k % n2)] = true;
    }
    for (StateId s = 0; s < m1_->num_states(); ++s)
      if (!hit1[s]) report(s, 0, 0, "totality: state of M unrelated to every state of M'");
    for (StateId s2 = 0; s2 < m2_->num_states(); ++s2)
      if (!hit2[s2])
        report(0, s2, 0, "totality: state of M' unrelated to every state of M");
  }

  // Clauses 2a/2b/2c for every recorded (minimal-degree) triple.
  const std::uint64_t n2 = m2_->num_states();
  for (const auto& [k, degree] : min_degree_) {
    if (violations.size() >= max_violations) break;
    const auto s = static_cast<StateId>(k / n2);
    const auto s2 = static_cast<StateId>(k % n2);
    if (!labels_equal(*m1_, s, *m2_, s2))
      report(s, s2, degree, "clause 2a: labels differ");
    if (!clause_2b(s, s2, degree)) report(s, s2, degree, "clause 2b fails");
    if (!clause_2c(s, s2, degree)) report(s, s2, degree, "clause 2c fails");
  }
  return violations;
}

namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max() / 4;

}  // namespace

FindResult find_correspondence(const kripke::Structure& m1, const kripke::Structure& m2,
                               FindOptions options) {
  support::require<ModelError>(
      m1.registry() == m2.registry(),
      "find_correspondence: structures must share a proposition registry");

  ICTL_PROFILE("bisim", "find_correspondence");
  FindResult result;
  const std::size_t n1 = m1.num_states();
  const std::size_t n2 = m2.num_states();
  const std::uint64_t cap =
      options.degree_cap != 0 ? options.degree_cap
                              : static_cast<std::uint64_t>(n1) + n2;

  // Candidate pairs: equal labels, optionally same stuttering class.
  std::vector<std::uint32_t> stutter_class;
  if (options.use_stuttering_prefilter) {
    ICTL_PROFILE("bisim", "stuttering_prefilter");
    const kripke::Structure u = kripke::disjoint_union(m1, m2);
    const Partition p = stuttering_partition(u);
    stutter_class.resize(n1 + n2);
    for (StateId s = 0; s < n1 + n2; ++s) stutter_class[s] = p.block_of(s);
  }

  // md[s * n2 + s2] = current lower bound on the minimal degree; kInf = dead.
  std::vector<std::uint64_t> md(n1 * n2, kInf);
  std::vector<std::uint64_t> candidates;
  {
    ICTL_PROFILE("bisim", "candidate_generation");
    for (StateId s = 0; s < n1; ++s) {
      for (StateId s2 = 0; s2 < n2; ++s2) {
        if (options.use_stuttering_prefilter &&
            stutter_class[s] != stutter_class[n1 + s2])
          continue;
        if (!labels_equal(m1, s, m2, s2)) continue;
        md[static_cast<std::size_t>(s) * n2 + s2] = 0;
        candidates.push_back(static_cast<std::uint64_t>(s) * n2 + s2);
      }
    }
    ICTL_SPAN_ARG("candidates", candidates.size());
  }
  result.candidate_pairs = candidates.size();

  auto md_of = [&](StateId s, StateId s2) -> std::uint64_t {
    return md[static_cast<std::size_t>(s) * n2 + s2];
  };
  auto plus_one = [](std::uint64_t d) { return d >= kInf ? kInf : d + 1; };

  // Greatest fixpoint: raise each pair's minimal degree until the Section 3
  // clauses hold; pairs exceeding the cap die.  Monotone (degrees only
  // grow), so this terminates, and every fair chaotic order reaches the same
  // least degree assignment.
  //
  // The inner "does s->t pair with some s'-move" test only depends on which
  // pairs are alive, so it is cached in two pair bitsets and maintained on
  // pair death, turning the per-pair work from O(deg1 * deg2) into
  // O(deg1 + deg2):
  //   joint_b(t, s2) = exists t2 in succ(s2) with (t, t2) alive,
  //   joint_c(s, t2) = exists t  in succ(s)  with (t, t2) alive.
  //
  // Rounds are Gauss-Seidel sweeps in candidate order, but a sweep evaluates
  // only dirty pairs: those whose inputs changed since their last
  // evaluation.  Re-evaluating a clean pair would reproduce its entry, so
  // skipping it changes nothing — rounds, degrees and survivors are those of
  // the full sweep.  (This is not the FIFO pair worklist that was tried and
  // lost to the batched sweep: degrees creep up one unit at a time, so a
  // worklist re-examines a pair once per unit, while the dirty sweep keeps
  // the sweep order and examines a pair at most once per round.)  Pair
  // (s, s2) reads md(s, succ s2), md(succ s, s2), joint_b(succ s, s2) and
  // joint_c(s, succ s2), so a change of (u, v) dirties (u, pred v) and
  // (pred u, v), and a cleared joint_b(u, s2) / joint_c(s, v) dirties
  // pred u x {s2} / {s} x pred v.
  const std::size_t num_pairs = n1 * n2;
  support::DynamicBitset joint_b(num_pairs), joint_c(num_pairs);
  for (const std::uint64_t k : candidates) {
    const auto t = static_cast<StateId>(k / n2);
    const auto t2 = static_cast<StateId>(k % n2);
    for (const StateId s2 : m2.predecessors(t2))
      joint_b.set(static_cast<std::size_t>(t) * n2 + s2);
    for (const StateId s : m1.predecessors(t))
      joint_c.set(static_cast<std::size_t>(s) * n2 + t2);
  }

  support::DynamicBitset dirty(num_pairs);
  for (const std::uint64_t k : candidates) dirty.set(static_cast<std::size_t>(k));
  auto mark = [&](StateId s, StateId s2) {
    dirty.set(static_cast<std::size_t>(s) * n2 + s2);
  };

  auto on_change = [&](StateId u, StateId v) {
    for (const StateId s2 : m2.predecessors(v)) mark(u, s2);
    for (const StateId s : m1.predecessors(u)) mark(s, v);
  };

  auto on_death = [&](StateId u, StateId v) {
    // Recompute the joint flags that listed (u, v) as a witness.
    for (const StateId s2 : m2.predecessors(v)) {
      const std::size_t jk = static_cast<std::size_t>(u) * n2 + s2;
      if (!joint_b.test(jk)) continue;
      bool alive = false;
      for (const StateId t2 : m2.successors(s2))
        if (md_of(u, t2) < kInf) {
          alive = true;
          break;
        }
      if (alive) continue;
      joint_b.reset(jk);
      for (const StateId s : m1.predecessors(u)) mark(s, s2);
    }
    for (const StateId s : m1.predecessors(u)) {
      const std::size_t jk = static_cast<std::size_t>(s) * n2 + v;
      if (!joint_c.test(jk)) continue;
      bool alive = false;
      for (const StateId t : m1.successors(s))
        if (md_of(t, v) < kInf) {
          alive = true;
          break;
        }
      if (alive) continue;
      joint_c.reset(jk);
      for (const StateId s2 : m2.predecessors(v)) mark(s, s2);
    }
  };

  {
    ICTL_PROFILE("bisim", "degree_fixpoint");
    bool changed = true;
    std::uint64_t scanned = 0;
    while (changed) {
      changed = false;
      ++result.iterations;
      rt::charge_iteration("bisim/degree_fixpoint");
      ICTL_FAILPOINT("bisim/degree_round");
      for (const std::uint64_t k : candidates) {
        // Rounds over a large candidate set can be long on their own;
        // keep the deadline responsive with a batched in-round check.
        if ((++scanned & 0xfff) == 0) rt::checkpoint("bisim/degree_fixpoint");
        if (!dirty.test(static_cast<std::size_t>(k))) continue;
        dirty.reset(static_cast<std::size_t>(k));
        std::uint64_t& entry = md[k];
        if (entry >= kInf) continue;
        ++result.pair_evaluations;
        const auto s = static_cast<StateId>(k / n2);
        const auto s2 = static_cast<StateId>(k % n2);
        // Minimal degree satisfying clause 2b:
        //   min( A + 1, max over s-moves of per-move cost ), where
        //   A = min over s'-moves t2 of md(s, t2)   (first disjunct), and the
        //   per-move cost of s->t is 0 when t pairs with some s'-move, else
        //   md(t, s2) + 1 (t stays against s2, consuming one degree).
        // Clause 2c is the mirror image, so one pass over each side's moves
        // serves both: the s'-moves give A + 1 (stay_b) and 2c's per-move
        // maximum (all_c), the s-moves give stay_c and all_b.
        std::uint64_t stay_b = kInf, all_c = 0;
        for (const StateId t2 : m2.successors(s2)) {
          const std::uint64_t cost = plus_one(md_of(s, t2));
          stay_b = std::min(stay_b, cost);
          if (!joint_c.test(static_cast<std::size_t>(s) * n2 + t2))
            all_c = std::max(all_c, cost);
        }
        std::uint64_t stay_c = kInf, all_b = 0;
        for (const StateId t : m1.successors(s)) {
          const std::uint64_t cost = plus_one(md_of(t, s2));
          stay_c = std::min(stay_c, cost);
          if (!joint_b.test(static_cast<std::size_t>(t) * n2 + s2))
            all_b = std::max(all_b, cost);
        }
        const std::uint64_t need_b = std::min(stay_b, all_b);
        const std::uint64_t need_c = std::min(stay_c, all_c);

        const std::uint64_t need = std::max({entry, need_b, need_c});
        if (need != entry) {
          entry = need > cap ? kInf : need;
          on_change(s, s2);
          if (entry >= kInf) on_death(s, s2);
          changed = true;
        }
      }
    }
    ICTL_SPAN_ARG("iterations", result.iterations);
    ICTL_SPAN_ARG("pair_evaluations", result.pair_evaluations);
  }

  std::size_t surviving = 0;
  for (const std::uint64_t k : candidates)
    if (md[k] < kInf) ++surviving;
  result.surviving_pairs = surviving;
  ICTL_SPAN_ARG("surviving", surviving);

  const std::uint64_t init_md = md_of(m1.initial(), m2.initial());
  if (init_md >= kInf) return result;  // no correspondence

  CorrespondenceRelation relation(m1, m2);
  relation.reserve(surviving);
  for (const std::uint64_t k : candidates) {
    if (md[k] >= kInf) continue;
    relation.add(static_cast<StateId>(k / n2), static_cast<StateId>(k % n2),
                 static_cast<std::uint32_t>(md[k]));
  }
  result.relation = std::move(relation);
  return result;
}

bool correspond(const kripke::Structure& m1, const kripke::Structure& m2,
                FindOptions options) {
  return find_correspondence(m1, m2, options).relation.has_value();
}

}  // namespace ictl::bisim
