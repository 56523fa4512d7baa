// Unit tests for the BDD manager: canonicity (hash-consing), the ITE
// identities, quantification, the pair-image kernels, counting, and the
// computed-table / reorder-hook plumbing.  Operators are validated against brute-force
// truth-table evaluation over small variable counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "symbolic/bdd.hpp"

namespace ictl::symbolic {
namespace {

/// Evaluates f on every assignment of `n` variables and packs the results
/// into a truth-table bitmask (assignment bits = variable values).
std::uint64_t truth_table(BddManager& mgr, Bdd f, std::uint32_t n) {
  EXPECT_LE(n, 6u);
  std::uint64_t table = 0;
  for (std::uint32_t a = 0; a < (1u << n); ++a) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (std::uint32_t v = 0; v < n; ++v) assignment[v] = ((a >> v) & 1u) != 0;
    if (mgr.eval(f, assignment)) table |= std::uint64_t{1} << a;
  }
  return table;
}

TEST(BddManager, TerminalsAndVars) {
  BddManager mgr(4);
  EXPECT_EQ(mgr.num_vars(), 4u);
  EXPECT_NE(kBddFalse, kBddTrue);
  EXPECT_TRUE(BddManager::is_terminal(kBddFalse));
  EXPECT_TRUE(BddManager::is_terminal(kBddTrue));
  const Bdd x0 = mgr.var(0);
  EXPECT_FALSE(BddManager::is_terminal(x0));
  EXPECT_EQ(mgr.node_var(x0), 0u);
  EXPECT_EQ(mgr.node_low(x0), kBddFalse);
  EXPECT_EQ(mgr.node_high(x0), kBddTrue);
}

TEST(BddManager, CanonicityHashConsing) {
  BddManager mgr(4);
  // The same function built twice is the same node.
  EXPECT_EQ(mgr.var(2), mgr.var(2));
  const Bdd a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const Bdd b = mgr.bdd_and(mgr.var(1), mgr.var(0));
  EXPECT_EQ(a, b);
  // De Morgan, structurally: !(x | y) == !x & !y as node identity.
  const Bdd lhs = mgr.bdd_not(mgr.bdd_or(mgr.var(0), mgr.var(1)));
  const Bdd rhs = mgr.bdd_and(mgr.bdd_not(mgr.var(0)), mgr.bdd_not(mgr.var(1)));
  EXPECT_EQ(lhs, rhs);
  // Double negation restores the original node.
  EXPECT_EQ(mgr.bdd_not(mgr.bdd_not(a)), a);
  // Tautology and contradiction collapse to the terminals.
  EXPECT_EQ(mgr.bdd_or(mgr.var(3), mgr.bdd_not(mgr.var(3))), kBddTrue);
  EXPECT_EQ(mgr.bdd_and(mgr.var(3), mgr.bdd_not(mgr.var(3))), kBddFalse);
}

TEST(BddManager, IteIdentities) {
  BddManager mgr(3);
  const Bdd f = mgr.bdd_xor(mgr.var(0), mgr.var(1));
  const Bdd g = mgr.var(2);
  EXPECT_EQ(mgr.ite(kBddTrue, f, g), f);
  EXPECT_EQ(mgr.ite(kBddFalse, f, g), g);
  EXPECT_EQ(mgr.ite(f, g, g), g);
  EXPECT_EQ(mgr.ite(f, kBddTrue, kBddFalse), f);
  EXPECT_EQ(mgr.ite(f, kBddFalse, kBddTrue), mgr.bdd_not(f));
  // ite(f, g, h) == (f & g) | (!f & h) on truth tables.
  const Bdd h = mgr.bdd_and(mgr.var(1), mgr.var(2));
  const Bdd via_ite = mgr.ite(f, g, h);
  const Bdd expanded =
      mgr.bdd_or(mgr.bdd_and(f, g), mgr.bdd_and(mgr.bdd_not(f), h));
  EXPECT_EQ(via_ite, expanded);
}

TEST(BddManager, OperatorsMatchTruthTables) {
  // Exhaustive: every pair of 4-var functions drawn from a pool, each
  // operator cross-checked against the packed truth tables.
  BddManager mgr(4);
  std::vector<Bdd> pool = {kBddFalse, kBddTrue, mgr.var(0), mgr.var(3),
                           mgr.bdd_xor(mgr.var(0), mgr.var(2)),
                           mgr.bdd_and(mgr.var(1), mgr.bdd_not(mgr.var(2))),
                           mgr.bdd_or(mgr.var(0), mgr.bdd_and(mgr.var(1), mgr.var(3)))};
  for (const Bdd f : pool) {
    const std::uint64_t tf = truth_table(mgr, f, 4);
    EXPECT_EQ(truth_table(mgr, mgr.bdd_not(f), 4), ~tf & 0xffffu);
    for (const Bdd g : pool) {
      const std::uint64_t tg = truth_table(mgr, g, 4);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_and(f, g), 4), tf & tg);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_or(f, g), 4), tf | tg);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_xor(f, g), 4), (tf ^ tg) & 0xffffu);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_implies(f, g), 4), (~tf | tg) & 0xffffu);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_iff(f, g), 4), ~(tf ^ tg) & 0xffffu);
      EXPECT_EQ(truth_table(mgr, mgr.bdd_diff(f, g), 4), tf & ~tg);
    }
  }
}

TEST(BddManager, Quantification) {
  BddManager mgr(4);
  const Bdd f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(1)),
                           mgr.bdd_and(mgr.var(2), mgr.var(3)));
  // exists x0 x1. f  =  true when (x2 & x3) | anything-for-x0x1: x0=x1=1
  // satisfies the first disjunct, so the quantified result is constant true.
  EXPECT_EQ(mgr.exists(f, mgr.cube({0, 1})), kBddTrue);
  // forall x0 x1. f  =  x2 & x3 (the first disjunct fails at x0=0).
  EXPECT_EQ(mgr.forall(f, mgr.cube({0, 1})), mgr.bdd_and(mgr.var(2), mgr.var(3)));
  // exists over an absent variable is the identity.
  const Bdd g = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_EQ(mgr.exists(g, mgr.cube({3})), g);
  // exists distributes as or of cofactors: directly compare against
  // f[x2:=0] | f[x2:=1] computed by hand.
  const Bdd f0 = mgr.bdd_and(mgr.var(0), mgr.var(1));            // f with x2=0
  const Bdd f1 = mgr.bdd_or(f0, mgr.var(3));                     // f with x2=1
  EXPECT_EQ(mgr.exists(f, mgr.cube({2})), mgr.bdd_or(f0, f1));
}

// ---- Pair-image kernels ------------------------------------------------------
//
// pair_pre_image / pair_post_image against the reference composition
// bdd_and + exists on random small managers over the (2k, 2k+1) pair
// layout.  Every random state set is built twice from one minterm list —
// once over x (even variables), once over x' (odd ones) — so the reference
// needs no renaming.

constexpr std::uint32_t kPairStateVars = 4;
constexpr std::uint32_t kPairStates = 1u << kPairStateVars;

/// A random minterm list: each of the `universe` values kept with
/// probability 1/3.
std::vector<std::uint32_t> random_minterms(std::mt19937& rng, std::uint32_t universe) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t m = 0; m < universe; ++m)
    if (rng() % 3 == 0) out.push_back(m);
  return out;
}

/// The state minterm `s` over the even (primed = false) or odd variables.
BddRef pair_minterm(BddManager& mgr, std::uint32_t s, bool primed) {
  BddRef acc(mgr, kBddTrue);
  for (std::uint32_t k = 0; k < kPairStateVars; ++k) {
    const std::uint32_t v = 2 * k + (primed ? 1 : 0);
    acc = mgr.bdd_and(acc, ((s >> k) & 1u) != 0 ? mgr.var(v) : mgr.nvar(v));
  }
  return acc;
}

BddRef pair_set(BddManager& mgr, const std::vector<std::uint32_t>& states, bool primed) {
  BddRef acc(mgr, kBddFalse);
  for (const std::uint32_t s : states)
    acc = mgr.bdd_or(acc, pair_minterm(mgr, s, primed));
  return acc;
}

/// A relation from a minterm list over (source, target) pairs, s * 16 + t.
BddRef pair_relation(BddManager& mgr, const std::vector<std::uint32_t>& edges) {
  BddRef acc(mgr, kBddFalse);
  for (const std::uint32_t e : edges)
    acc = mgr.bdd_or(acc, mgr.bdd_and(pair_minterm(mgr, e / kPairStates, false),
                                      pair_minterm(mgr, e % kPairStates, true)));
  return acc;
}

/// One random pair-layout manager: a scrambled pair order, a relation and
/// state/care sets (over x and x'), optionally sifted once everything is
/// built.  Every function is held in a BddRef across the sift.
struct PairWorkbench {
  BddManager mgr{2 * kPairStateVars};
  BddRef relation, states, states_primed, care;
  BddRef unprimed_cube, primed_cube;
  bool reordered = false;  // the sift moved at least one pair

  PairWorkbench(std::uint32_t seed, bool sift) {
    const std::vector<std::uint32_t> order =
        testing::scrambled_pair_order(2 * kPairStateVars, seed);
    mgr.set_initial_order(order);
    std::mt19937 rng(seed);
    relation = pair_relation(mgr, random_minterms(rng, kPairStates * kPairStates));
    const std::vector<std::uint32_t> s = random_minterms(rng, kPairStates);
    states = pair_set(mgr, s, false);
    states_primed = pair_set(mgr, s, true);
    care = pair_set(mgr, random_minterms(rng, kPairStates), false);
    std::vector<std::uint32_t> evens, odds;
    for (std::uint32_t k = 0; k < kPairStateVars; ++k) {
      evens.push_back(2 * k);
      odds.push_back(2 * k + 1);
    }
    unprimed_cube = mgr.cube(evens);
    primed_cube = mgr.cube(odds);
    if (sift) static_cast<void>(mgr.reorder_now());
    reordered = mgr.current_order() != order;
  }
};

TEST(BddManager, PairPreImageMatchesComposition) {
  std::uint32_t reordered = 0;
  for (std::uint32_t seed = 1; seed <= 12; ++seed)
    for (const bool sift : {false, true}) {
      PairWorkbench w(seed, sift);
      BddManager& mgr = w.mgr;
      reordered += w.reordered ? 1 : 0;
      // States: random, false, true (each given over x and over x').
      const std::vector<std::pair<Bdd, Bdd>> state_cases = {
          {w.states, w.states_primed}, {kBddFalse, kBddFalse}, {kBddTrue, kBddTrue}};
      for (const auto& [s, s_primed] : state_cases)
        for (const Bdd rel : {w.relation.get(), kBddTrue})
          for (const Bdd care : {kBddTrue, s, w.care.get()}) {
            const BddRef expected = mgr.bdd_and(
                care, mgr.exists(mgr.bdd_and(rel, s_primed), w.primed_cube));
            EXPECT_EQ(mgr.pair_pre_image(care, rel, s), expected)
                << "seed " << seed << " sift " << sift;
          }
      const auto rep = mgr.audit();
      ASSERT_TRUE(rep.ok()) << rep.to_string();
    }
  EXPECT_GT(reordered, 0u);  // the sift legs ran on moved orders
}

TEST(BddManager, PairPostImageMatchesComposition) {
  for (std::uint32_t seed = 1; seed <= 12; ++seed)
    for (const bool sift : {false, true}) {
      PairWorkbench w(seed, sift);
      BddManager& mgr = w.mgr;
      for (const Bdd s : {w.states.get(), kBddFalse, kBddTrue})
        for (const Bdd rel : {w.relation.get(), kBddTrue}) {
          // The reference image lies over x', the kernel's over x: compare
          // them state by state.
          const BddRef expected = mgr.exists(mgr.bdd_and(rel, s), w.unprimed_cube);
          const BddRef image = mgr.pair_post_image(rel, s);
          for (const std::uint32_t v : mgr.support_vars(image)) EXPECT_EQ(v % 2, 0u);
          for (std::uint32_t t = 0; t < kPairStates; ++t) {
            std::vector<bool> as_x(mgr.num_vars(), false);
            std::vector<bool> as_primed(mgr.num_vars(), false);
            for (std::uint32_t k = 0; k < kPairStateVars; ++k) {
              as_x[2 * k] = ((t >> k) & 1u) != 0;
              as_primed[2 * k + 1] = ((t >> k) & 1u) != 0;
            }
            EXPECT_EQ(mgr.eval(image, as_x), mgr.eval(expected, as_primed))
                << "seed " << seed << " sift " << sift << " state " << t;
          }
        }
      const auto rep = mgr.audit();
      ASSERT_TRUE(rep.ok()) << rep.to_string();
    }
}

TEST(BddManager, PairPostImageEmitsUnprimedVariables) {
  BddManager mgr(6);
  // The "shift" relation x'_k <-> x_k: its post-image is the set itself,
  // returned over the unprimed variables 0, 2, 4.
  BddRef identity(mgr, kBddTrue);
  for (std::uint32_t k = 0; k < 3; ++k)
    identity = mgr.bdd_and(identity, mgr.bdd_iff(mgr.var(2 * k), mgr.var(2 * k + 1)));
  const BddRef f = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(2)), mgr.var(4));
  EXPECT_EQ(mgr.pair_post_image(identity, f), f);
  EXPECT_EQ(mgr.pair_pre_image(kBddTrue, identity, f), f);
  // A relation that ignores the source: every state steps to x'_1 & !x'_2.
  const BddRef target = mgr.bdd_and(mgr.var(3), mgr.nvar(5));
  EXPECT_EQ(mgr.pair_post_image(target, f), mgr.bdd_and(mgr.var(2), mgr.nvar(4)));
  // Its pre-image of any set meeting the target is everything (then cut
  // to the care set), and of a set missing it, nothing.
  EXPECT_EQ(mgr.pair_pre_image(kBddTrue, target, mgr.var(2)), kBddTrue);
  EXPECT_EQ(mgr.pair_pre_image(f, target, mgr.var(2)), f);
  EXPECT_EQ(mgr.pair_pre_image(kBddTrue, target, mgr.var(4)), kBddFalse);
}

TEST(BddManager, SatCount) {
  BddManager mgr(4);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kBddFalse), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kBddTrue), 16.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0)), 8.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(3)), 8.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_and(mgr.var(0), mgr.var(1))), 4.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_or(mgr.var(0), mgr.var(1))), 12.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.bdd_xor(mgr.var(2), mgr.var(3))), 8.0);
  // Counting is consistent under variable growth: a fresh manager with more
  // variables doubles per variable.
  BddManager wide(10);
  EXPECT_DOUBLE_EQ(wide.sat_count(wide.var(0)), 512.0);
}

TEST(SatCountExact, NormalizationArithmeticAndRendering) {
  // Equal counts have equal representations regardless of how they were
  // assembled: the mantissa is normalized odd (or zero).
  EXPECT_EQ(SatCount::make(4, 0), SatCount::make(1, 2));
  EXPECT_EQ(SatCount::make(6, 10), SatCount::make(3, 11));
  EXPECT_EQ(SatCount::make(0, 37), SatCount::make(0, 0));
  EXPECT_TRUE(SatCount::make(0).is_zero());
  EXPECT_EQ((SatCount::make(3, 4) + SatCount::make(1, 4)), SatCount::make(1, 6));
  EXPECT_EQ((SatCount::make(1, 60) + SatCount::make(1, 0)).to_decimal_string(),
            "1152921504606846977");
  EXPECT_EQ(SatCount::make(1, 70).to_decimal_string(), "1180591620717411303424");
  EXPECT_DOUBLE_EQ(SatCount::make(1, 70).to_double(), std::ldexp(1.0, 70));
  // Sums whose odd part would exceed the 128-bit mantissa are a hard error,
  // not silent drift.
  SatCount big = SatCount::make(1, 128);
  EXPECT_THROW(big += SatCount::make(1, 0), Error);
}

TEST(SatCountExact, TracksWideOddPartsWhereTheDoubleViewRounds) {
  // f = !x0 | (x0 & x1 & ... & x60) over 61 variables has exactly
  // 2^60 + 1 satisfying assignments — one more than a double can tell
  // apart at that magnitude.
  constexpr std::uint32_t kVars = 61;
  BddManager mgr(kVars);
  BddRef conj(mgr, kBddTrue);
  for (std::uint32_t v = kVars - 1; v >= 1; --v)
    conj = mgr.bdd_and(conj, mgr.var(v));
  const BddRef f = mgr.ite(mgr.var(0), conj, kBddTrue);

  const SatCount exact = mgr.sat_count_exact(f);
  EXPECT_EQ(exact, SatCount::make((std::uint64_t{1} << 60) + 1));
  EXPECT_EQ(exact.to_decimal_string(), "1152921504606846977");
  // Regression pin for the precision bug the exact path fixes: the double
  // view rounds the +1 away entirely.
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), std::ldexp(1.0, 60));
  EXPECT_DOUBLE_EQ(exact.to_double(), std::ldexp(1.0, 60));  // lossy by design
  // Terminals and simple cofactor shapes agree with the double view where
  // the double view is still exact.
  EXPECT_EQ(mgr.sat_count_exact(kBddFalse), SatCount::make(0));
  EXPECT_EQ(mgr.sat_count_exact(kBddTrue), SatCount::make(1, kVars));
  EXPECT_EQ(mgr.sat_count_exact(mgr.var(7)), SatCount::make(1, kVars - 1));
}

TEST(BddManager, DagSizeAndEval) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.dag_size(kBddTrue), 0u);
  EXPECT_EQ(mgr.dag_size(mgr.var(1)), 1u);
  const Bdd f = mgr.bdd_xor(mgr.bdd_xor(mgr.var(0), mgr.var(1)), mgr.var(2));
  // Parity of 3 variables: canonical BDD has 2 nodes per level above the
  // bottom and 1 at the top: 1 + 2 + 2 = 5.
  EXPECT_EQ(mgr.dag_size(f), 5u);
  EXPECT_TRUE(mgr.eval(f, {true, false, false}));
  EXPECT_FALSE(mgr.eval(f, {true, true, false}));
  EXPECT_TRUE(mgr.eval(f, {true, true, true}));
}

TEST(BddManager, ComputedCacheHits) {
  BddManager mgr(8);
  Bdd f = kBddTrue;
  for (std::uint32_t v = 0; v < 8; ++v)
    f = mgr.bdd_and(f, v % 2 == 0 ? mgr.var(v) : mgr.bdd_not(mgr.var(v)));
  const auto before = mgr.stats();
  // Recomputing the same conjunction must be served from the computed table
  // and the unique table — same node, more hits, no new nodes.
  const std::size_t nodes_before = mgr.num_nodes();
  Bdd g = kBddTrue;
  for (std::uint32_t v = 0; v < 8; ++v)
    g = mgr.bdd_and(g, v % 2 == 0 ? mgr.var(v) : mgr.bdd_not(mgr.var(v)));
  EXPECT_EQ(f, g);
  EXPECT_EQ(mgr.num_nodes(), nodes_before);
  EXPECT_GT(mgr.stats().cache_hits + mgr.stats().unique_hits,
            before.cache_hits + before.unique_hits);
}

TEST(BddManager, ReorderHookFiresOnGrowth) {
  // The growth trigger behind enable_dynamic_reordering: the first sift
  // fires once the node table crosses the threshold, which then doubles, so
  // firings grow only logarithmically with the table.
  constexpr std::size_t kThreshold = 64;
  BddManager mgr(16);
  std::vector<BddRef> pos, neg;
  for (std::uint32_t v = 0; v < 16; ++v) {
    pos.push_back(mgr.var(v));
    neg.push_back(mgr.nvar(v));
  }
  ASSERT_LT(mgr.num_nodes(), kThreshold);
  mgr.enable_dynamic_reordering(kThreshold);
  // Each step is ONE public operation, so a firing is attributed to the
  // table size it saw.  Roots survive every sift.
  std::vector<std::size_t> fired_at;  // table size after each op that fired
  const auto step = [&](BddRef& acc, auto&& op) {
    const std::size_t calls = mgr.stats().reorder_hook_calls;
    const std::size_t before = mgr.num_nodes();
    acc = op();
    if (mgr.stats().reorder_hook_calls != calls) {
      EXPECT_EQ(mgr.stats().reorder_hook_calls, calls + 1);
      if (fired_at.empty()) {
        EXPECT_LT(before, kThreshold);  // fired at the crossing, not later
      }
      fired_at.push_back(mgr.num_nodes());
    }
  };
  // Plenty of distinct nodes: a parity chain, scattered conjunctions, and
  // a disjunction of parity cofactors.
  BddRef parity(mgr, kBddFalse);
  for (std::uint32_t v = 0; v < 16; ++v)
    step(parity, [&] { return mgr.bdd_xor(parity, pos[v]); });
  BddRef mixed(mgr, kBddTrue), clause;
  for (std::uint32_t v = 0; v + 1 < 16; ++v) {
    step(clause, [&] { return mgr.bdd_or(pos[v], neg[v + 1]); });
    step(mixed, [&] { return mgr.bdd_and(mixed, clause); });
  }
  BddRef more(mgr, kBddFalse), cofactor;
  for (std::uint32_t v = 0; v < 16; ++v) {
    step(cofactor, [&] { return mgr.bdd_and(pos[v], parity); });
    step(more, [&] { return mgr.bdd_or(more, cofactor); });
  }

  ASSERT_GE(fired_at.size(), 2u);
  EXPECT_EQ(mgr.stats().reorder_hook_calls, fired_at.size());
  EXPECT_EQ(mgr.stats().sift_passes, fired_at.size());  // every firing sifted
  // Threshold doubling: firing i needs a table of at least kThreshold * 2^i.
  for (std::size_t i = 0; i < fired_at.size(); ++i)
    EXPECT_GE(fired_at[i], kThreshold << i) << "firing " << i;
  // Sifting kept every rooted function.
  EXPECT_DOUBLE_EQ(mgr.sat_count(parity), std::ldexp(1.0, 15));
  const auto rep = mgr.audit();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
}

TEST(BddManager, NewVarExtendsUniverse) {
  BddManager mgr(2);
  const Bdd f = mgr.bdd_and(mgr.var(0), mgr.var(1));
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), 1.0);
  const std::uint32_t v = mgr.new_var();
  EXPECT_EQ(v, 2u);
  EXPECT_EQ(mgr.num_vars(), 3u);
  // The old function now has a free variable: count doubles.
  EXPECT_DOUBLE_EQ(mgr.sat_count(f), 2.0);
  EXPECT_EQ(mgr.bdd_and(f, mgr.var(2)),
            mgr.bdd_and(mgr.var(0), mgr.bdd_and(mgr.var(1), mgr.var(2))));
}

}  // namespace
}  // namespace ictl::symbolic
