// Differential tests for the Section 3 decision procedure's fast paths.
//
// The library computes stuttering exit signatures and divergence with one
// SCC-ordered pass per refinement round, and runs the degree fixpoint as a
// dirty-pair Gauss-Seidel sweep.  This suite keeps the straightforward
// versions — chaotic propagation of signatures and divergence until nothing
// changes, and a degree fixpoint that re-evaluates every candidate pair in
// every round — as test-local references, and demands bit-identical results:
// the same block id for every state, the same (pair, minimal degree)
// entries, and the same candidate, surviving and round counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "bisim/correspondence.hpp"
#include "bisim/indexed_correspondence.hpp"
#include "bisim/stuttering.hpp"
#include "ring/ring_correspondence.hpp"

namespace ictl::bisim {
namespace {

using kripke::StateId;

// ---- reference stuttering partition ------------------------------------------

std::vector<Partition::Signature> reference_exit_signatures(const kripke::Structure& m,
                                                            const Partition& p) {
  const std::size_t n = m.num_states();
  std::vector<Partition::Signature> sig(n);
  for (StateId s = 0; s < n; ++s) {
    for (const StateId t : m.successors(s))
      if (!p.same_block(s, t)) sig[s].push_back(p.block_of(t));
    std::sort(sig[s].begin(), sig[s].end());
    sig[s].erase(std::unique(sig[s].begin(), sig[s].end()), sig[s].end());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (StateId s = 0; s < n; ++s) {
      for (const StateId t : m.successors(s)) {
        if (!p.same_block(s, t)) continue;
        Partition::Signature merged;
        std::set_union(sig[s].begin(), sig[s].end(), sig[t].begin(), sig[t].end(),
                       std::back_inserter(merged));
        if (merged != sig[s]) {
          sig[s] = std::move(merged);
          changed = true;
        }
      }
    }
  }
  return sig;
}

std::vector<bool> reference_divergent_states(const kripke::Structure& m,
                                             const Partition& p) {
  const std::size_t n = m.num_states();
  std::vector<bool> divergent(n, true);
  bool changed = true;
  while (changed) {
    changed = false;
    for (StateId s = 0; s < n; ++s) {
      if (!divergent[s]) continue;
      bool has_divergent_inert_succ = false;
      for (const StateId t : m.successors(s))
        if (p.same_block(s, t) && divergent[t]) {
          has_divergent_inert_succ = true;
          break;
        }
      if (!has_divergent_inert_succ) {
        divergent[s] = false;
        changed = true;
      }
    }
  }
  return divergent;
}

Partition reference_stuttering_partition(const kripke::Structure& m,
                                         StutteringOptions options) {
  Partition p = Partition::by_labels(m);
  while (true) {
    const auto sig = reference_exit_signatures(m, p);
    std::vector<bool> divergent;
    if (options.divergence_sensitive) divergent = reference_divergent_states(m, p);
    const bool changed = p.refine([&](StateId s) {
      Partition::Signature full = sig[s];
      if (options.divergence_sensitive && divergent[s])
        full.push_back(static_cast<std::uint32_t>(p.num_blocks()));
      return full;
    });
    if (!changed) return p;
  }
}

// ---- reference degree fixpoint (full sweeps) ---------------------------------

FindResult reference_find_correspondence(const kripke::Structure& m1,
                                         const kripke::Structure& m2,
                                         FindOptions options) {
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max() / 4;
  FindResult result;
  const std::size_t n1 = m1.num_states();
  const std::size_t n2 = m2.num_states();
  const std::uint64_t cap = options.degree_cap != 0
                                ? options.degree_cap
                                : static_cast<std::uint64_t>(n1) + n2;

  std::vector<std::uint32_t> stutter_class;
  if (options.use_stuttering_prefilter) {
    const Partition p =
        reference_stuttering_partition(kripke::disjoint_union(m1, m2), {});
    stutter_class.resize(n1 + n2);
    for (StateId s = 0; s < n1 + n2; ++s) stutter_class[s] = p.block_of(s);
  }

  std::vector<std::uint64_t> md(n1 * n2, kInf);
  std::vector<std::uint64_t> candidates;
  for (StateId s = 0; s < n1; ++s)
    for (StateId s2 = 0; s2 < n2; ++s2) {
      if (options.use_stuttering_prefilter &&
          stutter_class[s] != stutter_class[n1 + s2])
        continue;
      if (!labels_equal(m1, s, m2, s2)) continue;
      md[static_cast<std::size_t>(s) * n2 + s2] = 0;
      candidates.push_back(static_cast<std::uint64_t>(s) * n2 + s2);
    }
  result.candidate_pairs = candidates.size();

  auto md_of = [&](StateId s, StateId s2) {
    return md[static_cast<std::size_t>(s) * n2 + s2];
  };
  auto plus_one = [](std::uint64_t d) { return d >= kInf ? kInf : d + 1; };
  // Joint witnesses recomputed from scratch: does s1 pair with some s2-move?
  auto joint_b = [&](StateId t, StateId s2) {
    for (const StateId t2 : m2.successors(s2))
      if (md_of(t, t2) < kInf) return true;
    return false;
  };
  auto joint_c = [&](StateId s, StateId t2) {
    for (const StateId t : m1.successors(s))
      if (md_of(t, t2) < kInf) return true;
    return false;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    for (const std::uint64_t k : candidates) {
      std::uint64_t& entry = md[k];
      if (entry >= kInf) continue;
      ++result.pair_evaluations;
      const auto s = static_cast<StateId>(k / n2);
      const auto s2 = static_cast<StateId>(k % n2);
      std::uint64_t stay_b = kInf;
      for (const StateId t2 : m2.successors(s2))
        stay_b = std::min(stay_b, plus_one(md_of(s, t2)));
      std::uint64_t all_b = 0;
      for (const StateId t : m1.successors(s))
        if (!joint_b(t, s2)) all_b = std::max(all_b, plus_one(md_of(t, s2)));
      std::uint64_t stay_c = kInf;
      for (const StateId t : m1.successors(s))
        stay_c = std::min(stay_c, plus_one(md_of(t, s2)));
      std::uint64_t all_c = 0;
      for (const StateId t2 : m2.successors(s2))
        if (!joint_c(s, t2)) all_c = std::max(all_c, plus_one(md_of(s, t2)));
      const std::uint64_t need =
          std::max({entry, std::min(stay_b, all_b), std::min(stay_c, all_c)});
      if (need != entry) {
        entry = need > cap ? kInf : need;
        changed = true;
      }
    }
  }

  for (const std::uint64_t k : candidates)
    if (md[k] < kInf) ++result.surviving_pairs;
  if (md_of(m1.initial(), m2.initial()) >= kInf) return result;
  CorrespondenceRelation relation(m1, m2);
  for (const std::uint64_t k : candidates) {
    if (md[k] < kInf)
      relation.add(static_cast<StateId>(k / n2), static_cast<StateId>(k % n2),
                   static_cast<std::uint32_t>(md[k]));
  }
  result.relation = std::move(relation);
  return result;
}

// ---- comparisons -------------------------------------------------------------

void expect_same_partition(const kripke::Structure& m, StutteringOptions options,
                           const std::string& what) {
  const Partition fast = stuttering_partition(m, options);
  const Partition ref = reference_stuttering_partition(m, options);
  ASSERT_EQ(fast.num_blocks(), ref.num_blocks()) << what;
  for (StateId s = 0; s < m.num_states(); ++s)
    ASSERT_EQ(fast.block_of(s), ref.block_of(s)) << what << " state " << s;
  // Divergence under the final partition (what the stuttering quotient uses).
  EXPECT_EQ(divergent_states(m, fast), reference_divergent_states(m, ref)) << what;
}

void expect_same_result(const kripke::Structure& m1, const kripke::Structure& m2,
                        FindOptions options, const std::string& what) {
  const FindResult fast = find_correspondence(m1, m2, options);
  const FindResult ref = reference_find_correspondence(m1, m2, options);
  EXPECT_EQ(fast.candidate_pairs, ref.candidate_pairs) << what;
  EXPECT_EQ(fast.surviving_pairs, ref.surviving_pairs) << what;
  EXPECT_EQ(fast.iterations, ref.iterations) << what;
  EXPECT_LE(fast.pair_evaluations, ref.pair_evaluations) << what;
  ASSERT_EQ(fast.relation.has_value(), ref.relation.has_value()) << what;
  if (fast.relation.has_value()) {
    EXPECT_EQ(fast.relation->entries(), ref.relation->entries()) << what;
  }
}

/// Random structure over one or two propositions with many equal labels and
/// dense same-label cycles, so inert SCCs of every shape occur.
kripke::Structure random_stuttering_structure(kripke::PropRegistryPtr reg,
                                              std::uint32_t num_states,
                                              std::uint32_t seed) {
  kripke::StructureBuilder b(reg);
  const auto pp = reg->plain("p");
  const auto pq = reg->plain("q");
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t s = 0; s < num_states; ++s) {
    std::vector<kripke::PropId> props;
    if (next() % 4 == 0) props.push_back(pp);
    if (next() % 8 == 0) props.push_back(pq);
    b.add_state(props);
  }
  for (std::uint32_t s = 0; s < num_states; ++s) {
    const std::uint32_t out_degree = 1 + next() % 3;
    for (std::uint32_t k = 0; k < out_degree; ++k) {
      // Mostly short forward/backward hops: long inert chains and cycles.
      const std::uint64_t hop = next() % 5;
      const StateId t = hop < 4 ? static_cast<StateId>((s + num_states + hop - 1) % num_states)
                                : static_cast<StateId>(next() % num_states);
      b.add_transition(s, t);
    }
  }
  b.set_initial(0);
  return kripke::restrict_to_reachable(std::move(b).build());
}

class ReferenceDifferential : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ReferenceDifferential, StutteringPartitionMatchesChaoticReference) {
  auto reg = kripke::make_registry();
  const std::uint32_t seed = GetParam();
  const auto a = testing::random_structure(reg, 20, seed);
  const auto b = testing::random_structure(reg, 20, seed + 50);
  const auto c = random_stuttering_structure(reg, 40, seed);
  for (const bool sensitive : {false, true}) {
    const StutteringOptions options{.divergence_sensitive = sensitive};
    const std::string tag = " sensitive=" + std::to_string(sensitive) +
                            " seed " + std::to_string(seed);
    expect_same_partition(a, options, "random" + tag);
    expect_same_partition(c, options, "stuttering" + tag);
    expect_same_partition(kripke::disjoint_union(a, b), options, "union" + tag);
    expect_same_partition(kripke::disjoint_union(c, a), options, "mixed union" + tag);
  }
}

TEST_P(ReferenceDifferential, FindCorrespondenceMatchesFullSweepReference) {
  auto reg = kripke::make_registry();
  const std::uint32_t seed = GetParam();
  const auto a = testing::random_structure(reg, 15, seed);
  const auto b = testing::random_structure(reg, 15, seed + 1000);
  const auto c = random_stuttering_structure(reg, 24, seed);
  const auto d = random_stuttering_structure(reg, 24, seed + 7);
  for (const bool prefilter : {true, false}) {
    const FindOptions options{.use_stuttering_prefilter = prefilter};
    const std::string tag =
        " prefilter=" + std::to_string(prefilter) + " seed " + std::to_string(seed);
    expect_same_result(a, b, options, "random pair" + tag);
    expect_same_result(a, a, options, "self" + tag);
    expect_same_result(c, d, options, "stuttering pair" + tag);
    expect_same_result(c, c, options, "stuttering self" + tag);
  }
  // A tight degree cap kills pairs mid-sweep, exercising the death path.
  expect_same_result(c, d, {.degree_cap = 2}, "capped seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceDifferential,
                         ::testing::Values(1u, 2u, 4u, 5u, 8u, 11u, 16u, 21u, 23u, 32u,
                                           47u, 64u, 128u));

TEST(ReferenceDifferential, RingIndexPairsMatchReferences) {
  auto reg = kripke::make_registry();
  const auto family = testing::ring_family({2, 3, 4, 5, 6, 7}, reg);
  for (const std::uint32_t base : {2u, 3u}) {
    const auto& mb = family[base - 2];
    for (std::uint32_t r = base; r <= 7; ++r) {
      const auto& mr = family[r - 2];
      for (const IndexPair& p : ring::ring_index_relation(base, r)) {
        const std::string tag = "M_" + std::to_string(base) + "~M_" + std::to_string(r) +
                                " (" + std::to_string(p.i) + "," +
                                std::to_string(p.i2) + ")";
        const auto r1 = kripke::reduce_to_index(mb.structure(), p.i);
        const auto r2 = kripke::reduce_to_index(mr.structure(), p.i2);
        const auto u = kripke::disjoint_union(r1, r2);
        expect_same_partition(u, {.divergence_sensitive = false}, tag + " blind");
        expect_same_partition(u, {.divergence_sensitive = true}, tag + " sensitive");
        expect_same_result(r1, r2, {}, tag);
      }
    }
  }
}

TEST(ReferenceDifferential, DirtySweepEvaluatesFewerPairsThanFullSweeps) {
  auto reg = kripke::make_registry();
  const auto m3 = testing::ring_of(3, reg);
  const auto m6 = testing::ring_of(6, reg);
  const IndexedFindResult found =
      find_indexed_correspondence(m3.structure(), m6.structure(), 3, 6);
  ASSERT_TRUE(found.corresponds());
  EXPECT_GT(found.pair_evaluations, 0u);
  EXPECT_LT(found.pair_evaluations, found.candidate_pairs * found.iterations);
}

}  // namespace
}  // namespace ictl::bisim
