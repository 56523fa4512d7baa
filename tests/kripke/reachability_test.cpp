// Reachability and cycle detection through the library's CSR primitives:
// forward reachability is restrict_to_reachable, backward reachability is
// the explicit E[f U g] worklist, and nontrivial-SCC detection is the
// explicit EG elimination — the fixpoints the model checkers run.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "../helpers.hpp"
#include "mc/explicit_ops.hpp"

namespace ictl::kripke {
namespace {

using Set = support::DynamicBitset;

Structure chain_with_cycle(PropRegistryPtr reg, StateId initial = 0) {
  // 0 -> 1 -> 2 -> 3 -> 2 (cycle at the end), 0 -> 4 -> 4.
  StructureBuilder b(reg);
  for (int i = 0; i < 5; ++i) b.add_state({});
  b.add_transition(0, 1);
  b.add_transition(1, 2);
  b.add_transition(2, 3);
  b.add_transition(3, 2);
  b.add_transition(0, 4);
  b.add_transition(4, 4);
  b.set_initial(initial);
  return std::move(b).build();
}

Set states(std::size_t n, std::initializer_list<StateId> members) {
  Set s(n);
  for (const StateId t : members) s.set(t);
  return s;
}

TEST(ForwardReachable, FromSingleState) {
  auto reg = make_registry();
  const Structure m = chain_with_cycle(reg, /*initial=*/1);
  std::vector<StateId> old_to_new;
  const Structure r = restrict_to_reachable(m, &old_to_new);
  EXPECT_EQ(r.num_states(), 3u);
  EXPECT_NE(old_to_new[1], kNoState);
  EXPECT_NE(old_to_new[2], kNoState);
  EXPECT_NE(old_to_new[3], kNoState);
  EXPECT_EQ(old_to_new[0], kNoState);
  EXPECT_EQ(old_to_new[4], kNoState);
}

TEST(BackwardReachable, FindsAllAncestors) {
  auto reg = make_registry();
  const Structure m = chain_with_cycle(reg);
  mc::ExplicitStateOps ops(m);
  const Set r = ops.eu(ops.top(), states(m.num_states(), {3}));
  EXPECT_TRUE(r.test(0));
  EXPECT_TRUE(r.test(1));
  EXPECT_TRUE(r.test(2));
  EXPECT_TRUE(r.test(3));
  EXPECT_FALSE(r.test(4));
}

TEST(BackwardReachable, RespectsWithinRestriction) {
  auto reg = make_registry();
  const Structure m = chain_with_cycle(reg);
  mc::ExplicitStateOps ops(m);
  // Only state 2 may be traversed on the way to 3.
  const Set r = ops.eu(states(m.num_states(), {2}), states(m.num_states(), {3}));
  EXPECT_TRUE(r.test(2));
  EXPECT_FALSE(r.test(1));
  EXPECT_FALSE(r.test(0));
}

TEST(Scc, NontrivialDetection) {
  // EG f holds exactly where an f-path reaches a nontrivial SCC of the
  // f-restricted graph, so EG over one component detects its cycle.
  auto reg = make_registry();
  const Structure m = chain_with_cycle(reg);
  mc::ExplicitStateOps ops(m);
  const std::size_t n = m.num_states();
  EXPECT_EQ(ops.eg(states(n, {2, 3})), states(n, {2, 3}));  // 2-cycle
  EXPECT_EQ(ops.eg(states(n, {4})), states(n, {4}));        // self-loop
  EXPECT_EQ(ops.eg(states(n, {0})), states(n, {}));         // no loop
  EXPECT_EQ(ops.eg(states(n, {0, 1})), states(n, {}));      // acyclic chain
}

TEST(Scc, WholeGraphStronglyConnected) {
  auto reg = make_registry();
  const Structure m = testing::two_state_loop(reg);
  mc::ExplicitStateOps ops(m);
  // Every state reaches every other, and the whole graph is one cycle.
  for (StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(ops.eu(ops.top(), states(m.num_states(), {s})), ops.top()) << s;
  EXPECT_EQ(ops.eg(ops.top()), ops.top());
}

class RandomStructureSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomStructureSweep, ForwardBackwardDuality) {
  // t reachable from the initial state  <=>  the initial state
  // backward-reaches {t}.
  auto reg = make_registry();
  const Structure m = testing::random_structure(reg, 40, GetParam());
  std::vector<StateId> old_to_new;
  static_cast<void>(restrict_to_reachable(m, &old_to_new));
  mc::ExplicitStateOps ops(m);
  for (StateId t = 0; t < m.num_states(); ++t) {
    const Set bwd = ops.eu(ops.top(), states(m.num_states(), {t}));
    EXPECT_EQ(old_to_new[t] != kNoState, bwd.test(m.initial())) << "state " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStructureSweep,
                         ::testing::Values(1u, 2u, 3u, 7u, 11u, 42u));

}  // namespace
}  // namespace ictl::kripke
