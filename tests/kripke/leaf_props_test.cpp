// kripke::resolve_leaf is the one place a formula leaf becomes propositions.
// Both CTL engines and the CTL* tableau go through it, so for every kind of
// leaf they must agree state for state, and they must reject the same bad
// leaves with the same error type.
#include "kripke/leaf_props.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../helpers.hpp"

namespace ictl::kripke {
namespace {

using testing::contains;

/// mc::CtlChecker and symbolic::CtlChecker over from_structure(m) give the
/// same satisfying set for `f`.
void expect_engines_agree(const Structure& m, const logic::FormulaPtr& f) {
  mc::CtlChecker explicit_checker(m);
  auto ts = std::make_shared<const symbolic::TransitionSystem>(
      symbolic::from_structure(m));
  symbolic::CtlChecker symbolic_checker(ts);
  const mc::SatSet& want = explicit_checker.sat(f);
  const symbolic::Bdd got = symbolic_checker.sat(f);
  for (StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(contains(*ts, got, s), want.test(s))
        << logic::to_string(f) << " state " << s;
}

/// Every route rejects `f` with LogicError: both CTL engines, and the CTL*
/// checker with and without its CTL fast path.
void expect_every_engine_throws(const Structure& m, const logic::FormulaPtr& f) {
  mc::CtlChecker explicit_checker(m);
  EXPECT_THROW(static_cast<void>(explicit_checker.sat(f)), LogicError);
  symbolic::CtlChecker symbolic_checker(
      std::make_shared<const symbolic::TransitionSystem>(symbolic::from_structure(m)));
  EXPECT_THROW(static_cast<void>(symbolic_checker.sat(f)), LogicError);
  mc::Checker fast(m);
  EXPECT_THROW(static_cast<void>(fast.sat(f)), LogicError);
  mc::CheckerOptions no_fast;
  no_fast.use_ctl_fast_path = false;
  mc::Checker tableau(m, no_fast);
  EXPECT_THROW(static_cast<void>(tableau.sat(f)), LogicError);
}

TEST(LeafProps, ResolvesEveryLeafKind) {
  auto reg = make_registry();
  const PropId a = reg->plain("a");
  const PropId c2 = reg->indexed("c", 2);
  const PropId c3 = reg->indexed("c", 3);
  const PropId erased = reg->indexed_base("d");
  const PropId theta = reg->theta("t");

  EXPECT_EQ(resolve_leaf(*reg, logic::f_true()).kind, LeafProps::Kind::kAll);
  EXPECT_EQ(resolve_leaf(*reg, logic::f_false()).kind, LeafProps::Kind::kNone);

  const LeafProps plain = resolve_leaf(*reg, logic::atom("a"));
  EXPECT_EQ(plain.kind, LeafProps::Kind::kOne);
  EXPECT_EQ(plain.prop, a);
  // A bare name without a plain prop falls back to the index-erased one.
  EXPECT_EQ(resolve_leaf(*reg, logic::atom("d")).prop, erased);
  EXPECT_EQ(resolve_leaf(*reg, logic::iatom_val("c", 3)).prop, c3);

  const LeafProps with_theta = resolve_leaf(*reg, logic::exactly_one("t"));
  EXPECT_EQ(with_theta.kind, LeafProps::Kind::kOne);
  EXPECT_EQ(with_theta.prop, theta);
  const LeafProps members = resolve_leaf(*reg, logic::exactly_one("c"));
  EXPECT_EQ(members.kind, LeafProps::Kind::kExactlyOne);
  EXPECT_EQ(members.members, (std::vector<PropId>{c2, c3}));

  EXPECT_THROW(static_cast<void>(resolve_leaf(*reg, logic::atom("zz"))), LogicError);
  EXPECT_THROW(static_cast<void>(resolve_leaf(*reg, logic::iatom_val("c", 9))),
               LogicError);
  EXPECT_THROW(static_cast<void>(resolve_leaf(*reg, logic::iatom("c", "i"))),
               LogicError);
  EXPECT_THROW(static_cast<void>(resolve_leaf(*reg, logic::EF(logic::atom("a")))),
               LogicError);
  EXPECT_THROW(static_cast<void>(resolve_leaf(*reg, nullptr)), LogicError);
}

TEST(LeafProps, EnginesAgreeOnPlainAtoms) {
  auto reg = make_registry();
  const auto m = testing::random_structure(reg, 20, 7);
  for (const char* name : {"p", "q"}) expect_engines_agree(m, logic::atom(name));
  expect_engines_agree(m, logic::f_true());
  expect_engines_agree(m, logic::f_false());
}

TEST(LeafProps, EnginesAgreeOnTheIndexErasedFallback) {
  // Over the reduction M_3|2 the process's propositions are index-erased:
  // the bare name `c` means c[.].
  const auto sys = testing::ring_of(3);
  const Structure reduced = reduce_to_index(sys.structure(), 2);
  ASSERT_FALSE(reduced.registry()->find_plain("c").has_value());
  for (const char* name : {"c", "d", "n", "t"}) {
    expect_engines_agree(reduced, logic::atom(name));
    EXPECT_TRUE(mc::CtlChecker(reduced).sat(logic::atom(name)).any()) << name;
  }
}

TEST(LeafProps, EnginesAgreeOnConcreteIndexedAtoms) {
  const auto sys = testing::ring_of(3);
  for (std::uint32_t i = 1; i <= 3; ++i)
    for (const char* base : {"c", "d", "n", "t"})
      expect_engines_agree(sys.structure(), logic::iatom_val(base, i));
}

TEST(LeafProps, EnginesAgreeOnExactlyOneWithAndWithoutTheta) {
  // The ring materializes theta("t") in its labels; d, n and c have no
  // theta and take the member-list route.
  const auto sys = testing::ring_of(3);
  ASSERT_TRUE(sys.structure().registry()->find_theta("t").has_value());
  ASSERT_FALSE(sys.structure().registry()->find_theta("c").has_value());
  for (const char* base : {"t", "c", "d", "n"})
    expect_engines_agree(sys.structure(), logic::exactly_one(base));
}

TEST(LeafProps, EnginesAgreeOnARegisteredUnusedName) {
  auto reg = make_registry();
  const auto m = testing::random_structure(reg, 20, 7);
  static_cast<void>(reg->plain("unused"));
  expect_engines_agree(m, logic::atom("unused"));
  EXPECT_TRUE(mc::CtlChecker(m).sat(logic::atom("unused")).none());
}

TEST(LeafProps, EveryEngineRejectsUnboundAndUnknownAtoms) {
  auto reg = make_registry();
  const auto m = testing::random_structure(reg, 20, 7);
  // The atoms sit under a temporal operator, so the CTL* tableau route
  // reaches them through its own leaf resolution.
  expect_every_engine_throws(m, logic::AG(logic::atom("never_registered")));
  expect_every_engine_throws(m, logic::AG(logic::iatom("p", "i")));
}

}  // namespace
}  // namespace ictl::kripke
