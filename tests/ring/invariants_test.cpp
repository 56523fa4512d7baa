// The Section 5 invariants, checked per-instance by model checking (the
// size-independent proofs live in symbolic_prover_test).
#include <gtest/gtest.h>

#include "logic/parser.hpp"
#include "mc/indexed_checker.hpp"
#include "ring/ring.hpp"

#include "../helpers.hpp"

namespace ictl::ring {
namespace {

class InvariantSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(InvariantSweep, Invariant1PartitionHolds) {
  const std::uint32_t r = GetParam();
  const auto sys = testing::ring_of(r);
  for (kripke::StateId s = 0; s < sys.structure().num_states(); ++s)
    ASSERT_TRUE(parts_form_partition(sys.state(s), r));
}

TEST_P(InvariantSweep, Invariant2RequestPersistence) {
  const auto sys = testing::ring_of(GetParam());
  EXPECT_TRUE(mc::holds(sys.structure(), invariant_request_persistence()));
}

TEST_P(InvariantSweep, Invariant3ExactlyOneToken) {
  const auto sys = testing::ring_of(GetParam());
  EXPECT_TRUE(mc::holds(sys.structure(), invariant_one_token()));
}

TEST_P(InvariantSweep, Property1TransferOnlyOnRequest) {
  const auto sys = testing::ring_of(GetParam());
  EXPECT_TRUE(mc::holds(sys.structure(), property_transfer_only_on_request()));
}

TEST_P(InvariantSweep, Property2CriticalImpliesToken) {
  const auto sys = testing::ring_of(GetParam());
  EXPECT_TRUE(mc::holds(sys.structure(), property_critical_implies_token()));
}

TEST_P(InvariantSweep, Property3RequestEventuallyGranted) {
  const auto sys = testing::ring_of(GetParam());
  EXPECT_TRUE(mc::holds(sys.structure(), property_request_granted()));
}

TEST_P(InvariantSweep, Property4DelayedEventuallyCritical) {
  const auto sys = testing::ring_of(GetParam());
  EXPECT_TRUE(mc::holds(sys.structure(), property_eventually_critical()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, InvariantSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

TEST(Invariants, AllSpecificationsAreRestrictedAndClosed) {
  for (const auto& [name, f] : section5_specifications()) {
    EXPECT_TRUE(logic::is_closed(f)) << name;
    EXPECT_TRUE(logic::is_restricted_ictl(f)) << name;
  }
}

TEST(Invariants, MutationBreaksInvariant2) {
  // Sanity check that the invariant is not vacuous: on a structure where a
  // delayed process may silently go neutral, invariant 2 must fail.  We
  // simulate this by checking the formula against a hand-built two-state
  // structure with a d-state whose successor drops d without granting t.
  auto reg = kripke::make_registry();
  kripke::StructureBuilder b(reg);
  const auto d1 = reg->indexed("d", 1);
  const auto n1 = reg->indexed("n", 1);
  // t_1 and c_1 label no state of the toy structure; registered, they read
  // as false everywhere.
  static_cast<void>(reg->indexed("t", 1));
  static_cast<void>(reg->indexed("c", 1));
  const auto s0 = b.add_state({d1});
  const auto s1 = b.add_state({n1});
  b.add_transition(s0, s1);
  b.add_transition(s1, s1);
  b.set_initial(s0);
  b.set_index_set({1});
  const auto m = std::move(b).build();
  EXPECT_FALSE(mc::holds(m, invariant_request_persistence()));
}

TEST(Invariants, NoTwoTokensEver) {
  const auto sys = testing::ring_of(5);
  // one(t) is materialized: assert it appears on every state label.
  const auto theta = sys.structure().registry()->find_theta("t");
  ASSERT_TRUE(theta.has_value());
  for (kripke::StateId s = 0; s < sys.structure().num_states(); ++s)
    EXPECT_TRUE(sys.structure().has_prop(s, *theta));
}

TEST(Invariants, DeadlockFreedomViaTotality) {
  // The paper: "since we have shown that every reachable state has a process
  // with the token, this process can always make the transition to and from
  // its critical section; therefore R is total."
  for (std::uint32_t r = 2; r <= 8; ++r)
    EXPECT_TRUE(testing::ring_of(r).structure().is_total()) << r;
}

}  // namespace
}  // namespace ictl::ring
