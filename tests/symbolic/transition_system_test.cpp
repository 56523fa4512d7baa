// Tests for symbolic::TransitionSystem and the explicit-to-symbolic bridge
// from_structure: pre/post images must agree state-for-state with the CSR
// primitives of kripke::Structure, and reachability/counting must match the
// explicit state space.
#include <gtest/gtest.h>

#include <cmath>

#include "../helpers.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::symbolic {
namespace {

using support::DynamicBitset;

using ictl::testing::contains;

/// The set-BDD of an explicit state-bitset.
Bdd encode(const TransitionSystem& ts, const DynamicBitset& set) {
  BddManager& mgr = ts.manager();
  Bdd acc = kBddFalse;
  set.for_each([&](std::size_t s) {
    acc = mgr.bdd_or(acc, state_minterm(mgr, ts.num_state_vars(),
                                        static_cast<kripke::StateId>(s), false));
  });
  return acc;
}

TEST(StateMinterm, EncodesBits) {
  auto mgr = std::make_shared<BddManager>(8);
  const Bdd m5 = state_minterm(*mgr, 4, 5, /*primed=*/false);
  // 5 = 0b0101: x0=1, x1=0, x2=1, x3=0 at the unprimed (even) variables.
  EXPECT_TRUE(mgr->eval(m5, {true, false, false, false, true, false, false, false}));
  EXPECT_FALSE(mgr->eval(m5, {true, false, true, false, true, false, false, false}));
  EXPECT_DOUBLE_EQ(mgr->sat_count(m5), std::ldexp(1.0, 8 - 4));  // primed free
  // Primed minterm lives on odd variables.
  const Bdd p5 = state_minterm(*mgr, 4, 5, /*primed=*/true);
  EXPECT_TRUE(mgr->eval(p5, {false, true, false, false, false, true, false, false}));
}

TEST(FromStructure, ImagesMatchExplicitOnTwoStateLoop) {
  auto reg = kripke::make_registry();
  const auto m = testing::two_state_loop(reg);
  const TransitionSystem ts = from_structure(m);

  DynamicBitset just_a(m.num_states());
  just_a.set(0);
  const Bdd sym_a = encode(ts, just_a);
  // pre(a) = {b}, post(a) = {b} on the two-cycle.
  EXPECT_FALSE(contains(ts, ts.pre_image(sym_a), 0));
  EXPECT_TRUE(contains(ts, ts.pre_image(sym_a), 1));
  EXPECT_FALSE(contains(ts, ts.post_image(sym_a), 0));
  EXPECT_TRUE(contains(ts, ts.post_image(sym_a), 1));
  EXPECT_EQ(ts.num_states(), SatCount::make(2));
}

TEST(FromStructure, ImagesMatchExplicitOnRandomStructures) {
  for (const std::uint32_t seed : {3u, 11u, 27u, 51u}) {
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 23, seed);  // non-power-of-2
    const TransitionSystem ts = from_structure(m);
    const std::size_t n = m.num_states();

    // Every reachable minterm corresponds to a real state and vice versa
    // (random_structure restricts to reachable states).
    EXPECT_EQ(ts.num_states(), SatCount::make(n)) << "seed " << seed;

    // pre/post of a pseudo-random set agree with the CSR primitives.
    DynamicBitset set(n);
    for (std::size_t s = 0; s < n; ++s)
      if ((s * 2654435761u + seed) % 3 == 0) set.set(s);
    const Bdd sym = encode(ts, set);

    DynamicBitset pre(n), post(n);
    m.pre_image(set, pre);
    m.post_image(set, post);
    const Bdd sym_pre = ts.pre_image(sym);
    const Bdd sym_post = ts.post_image(sym);
    for (kripke::StateId s = 0; s < n; ++s) {
      EXPECT_EQ(contains(ts, sym_pre, s), pre.test(s)) << "seed " << seed << " s " << s;
      EXPECT_EQ(contains(ts, sym_post, s), post.test(s))
          << "seed " << seed << " s " << s;
    }
  }
}

TEST(FromStructure, PropColumnsCarryOver) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 17, 7);
  const TransitionSystem ts = from_structure(m);
  for (const kripke::PropId p : m.used_props()) {
    const auto states = ts.prop_states(p);
    ASSERT_TRUE(states.has_value());
    for (kripke::StateId s = 0; s < m.num_states(); ++s)
      EXPECT_EQ(contains(ts, *states, s), m.has_prop(s, p)) << "prop " << p;
    EXPECT_EQ(ts.count_states(*states), SatCount::make(m.states_with(p).count()));
  }
  EXPECT_FALSE(ts.prop_states(9999).has_value());
}

TEST(FromStructure, InitialAndIndexSet) {
  const auto sys = testing::ring_of(3);
  const TransitionSystem ts = from_structure(sys.structure());
  EXPECT_TRUE(contains(ts, ts.initial(), sys.structure().initial()));
  EXPECT_EQ(ts.count_states(ts.initial()), SatCount::make(1));
  ASSERT_EQ(ts.index_set().size(), 3u);
  EXPECT_EQ(ts.index_set()[0], 1u);
  EXPECT_EQ(ts.index_set()[2], 3u);
  EXPECT_EQ(ts.registry(), sys.structure().registry());
  // The ring's explicit structure is already its reachable restriction.
  EXPECT_EQ(ts.num_states(), SatCount::make(sys.structure().num_states()));
}

TEST(FromStructure, BridgeStaysSinglePartition) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 9, 3);
  const TransitionSystem ts = from_structure(m);
  EXPECT_EQ(ts.partition().size(), 1u);
  EXPECT_EQ(ts.transitions(), ts.partition()[0]);
  EXPECT_EQ(ts.relation_node_count(), ts.manager().dag_size(ts.transitions()));
}

TEST(TransitionSystem, PartitionHandlesUntouchedVariables) {
  // Parts that never mention state var 2 (in any form) leave it free to
  // move, and chained saturation must still quantify it out of every image.
  constexpr std::uint32_t kVars = 3;
  auto mgr = std::make_shared<BddManager>(2 * kVars);
  auto reg = kripke::make_registry();
  // Part 0: x0' <-> !x0 (x1, x2 free); part 1: x1' <-> x1 (x0, x2 free).
  std::vector<Bdd> parts = {
      mgr->bdd_iff(mgr->var(TransitionSystem::primed(0)),
                   mgr->bdd_not(mgr->var(TransitionSystem::unprimed(0)))),
      mgr->bdd_iff(mgr->var(TransitionSystem::primed(1)),
                   mgr->var(TransitionSystem::unprimed(1)))};
  const Bdd initial = state_minterm(*mgr, kVars, 0, false);
  const TransitionSystem ts(mgr, kVars, initial, parts, reg, {}, {});
  // From 000: part 0 reaches {x0 = 1} (4 states), part 1 reaches {x1 = 0}
  // (4 states); they share {x0 = 1, x1 = 0}, so 6 successors.  Dually, 000
  // is a successor of every state with x0 = 1 or x1 = 0.  Every state is
  // reachable.
  const BddRef post = ts.post_image(initial);
  const BddRef pre = ts.pre_image(initial);
  for (const Bdd image : {post.get(), pre.get()})
    for (const std::uint32_t v : ts.manager().support_vars(image))
      EXPECT_EQ(v % 2, 0u) << "primed variable " << v << " leaked into an image";
  EXPECT_EQ(ts.count_states(post), SatCount::make(6));
  EXPECT_EQ(ts.count_states(pre), SatCount::make(6));
  EXPECT_EQ(ts.num_states(), SatCount::make(8));
}

TEST(TransitionSystem, DisjunctivePartitionMatchesMonolithic) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 14, 19);
  // Reference: the bridge's monolithic relation.
  const TransitionSystem reference = from_structure(m);
  const auto mgr = reference.manager_ptr();
  const std::uint32_t bits = reference.num_state_vars();
  // Partitioned: one part per source state (rule-wise by construction).
  std::vector<Bdd> parts;
  for (kripke::StateId s = 0; s < m.num_states(); ++s) {
    const auto succs = m.successors(s);
    if (succs.empty()) continue;
    Bdd targets = kBddFalse;
    for (const kripke::StateId t : succs)
      targets = mgr->bdd_or(targets, state_minterm(*mgr, bits, t, true));
    parts.push_back(
        mgr->bdd_and(state_minterm(*mgr, bits, s, false), targets));
  }
  const TransitionSystem partitioned(mgr, bits, reference.initial(), parts,
                                     m.registry(), {}, {});
  EXPECT_EQ(partitioned.transitions(), reference.transitions());
  EXPECT_GT(partitioned.partition().size(), 1u);
  std::vector<Bdd> sets = {reference.initial(),
                           mgr->var(TransitionSystem::unprimed(0)),
                           reference.reachable()};
  for (const Bdd s : sets) {
    EXPECT_EQ(partitioned.pre_image(s), reference.pre_image(s));
    EXPECT_EQ(partitioned.post_image(s), reference.post_image(s));
  }
  // Chained-saturation reachability lands on the same fixpoint as the
  // frontier loop over the monolithic relation.
  EXPECT_EQ(partitioned.reachable(), reference.reachable());
}

TEST(TransitionSystem, RejectsBadConstruction) {
  auto mgr = std::make_shared<BddManager>(4);
  EXPECT_THROW(TransitionSystem(nullptr, 2, kBddTrue, kBddTrue,
                                kripke::make_registry(), {}, {}),
               ModelError);
  EXPECT_THROW(TransitionSystem(mgr, 0, kBddTrue, kBddTrue,
                                kripke::make_registry(), {}, {}),
               ModelError);
  // 3 state vars need 6 BDD vars; the manager owns only 4.
  EXPECT_THROW(TransitionSystem(mgr, 3, kBddTrue, kBddTrue,
                                kripke::make_registry(), {}, {}),
               ModelError);
  // An empty partition has no transition relation at all.
  EXPECT_THROW(TransitionSystem(mgr, 2, kBddTrue, std::vector<Bdd>{},
                                kripke::make_registry(), {}, {}),
               ModelError);
}

}  // namespace
}  // namespace ictl::symbolic
