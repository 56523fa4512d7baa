#include "mc/ctl_checker.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "logic/parser.hpp"

namespace ictl::mc {
namespace {

using logic::parse_formula;

// A 4-state diamond:  0{p} -> 1{p,q} -> 3{r} -> 3,  0 -> 2{q} -> 3.
kripke::Structure diamond(kripke::PropRegistryPtr reg) {
  kripke::StructureBuilder b(reg);
  const auto p = reg->plain("p");
  const auto q = reg->plain("q");
  const auto r = reg->plain("r");
  const auto s0 = b.add_state({p});
  const auto s1 = b.add_state({p, q});
  const auto s2 = b.add_state({q});
  const auto s3 = b.add_state({r});
  b.add_transition(s0, s1);
  b.add_transition(s0, s2);
  b.add_transition(s1, s3);
  b.add_transition(s2, s3);
  b.add_transition(s3, s3);
  b.set_initial(s0);
  return std::move(b).build();
}

TEST(CtlChecker, AtomsAndBooleans) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  EXPECT_EQ(checker.sat(parse_formula("p")).count(), 2u);
  EXPECT_EQ(checker.sat(parse_formula("p & q")).count(), 1u);
  EXPECT_EQ(checker.sat(parse_formula("p | q")).count(), 3u);
  EXPECT_EQ(checker.sat(parse_formula("!r")).count(), 3u);
  EXPECT_EQ(checker.sat(parse_formula("p -> q")).count(), 3u);
  EXPECT_EQ(checker.sat(parse_formula("p <-> q")).count(), 2u);
  EXPECT_TRUE(checker.sat(parse_formula("true")).all());
  EXPECT_TRUE(checker.sat(parse_formula("false")).none());
}

TEST(CtlChecker, ExistentialOperators) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  // EF r everywhere; EG r only in the sink.
  EXPECT_TRUE(checker.sat(parse_formula("E F r")).all());
  EXPECT_EQ(checker.sat(parse_formula("E G r")).count(), 1u);
  // E(p U r): 0 -> 1 -> 3 stays in p until r.
  const auto& eu = checker.sat(parse_formula("E (p U r)"));
  EXPECT_TRUE(eu.test(0));
  EXPECT_TRUE(eu.test(1));
  EXPECT_FALSE(eu.test(2));
  EXPECT_TRUE(eu.test(3));
  // E(q U r): fails at 0 (no q there), holds from the q-states on.
  const auto& eq = checker.sat(parse_formula("E (q U r)"));
  EXPECT_FALSE(eq.test(0));
  EXPECT_TRUE(eq.test(1));
  EXPECT_TRUE(eq.test(2));
}

TEST(CtlChecker, UniversalOperators) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  EXPECT_TRUE(checker.sat(parse_formula("A F r")).all());
  EXPECT_EQ(checker.sat(parse_formula("A G r")).count(), 1u);
  // A(p U r) fails at 0 (the 0->2 branch leaves p before r).
  const auto& au = checker.sat(parse_formula("A (p U r)"));
  EXPECT_FALSE(au.test(0));
  EXPECT_TRUE(au.test(1));
  EXPECT_TRUE(au.test(3));
  EXPECT_TRUE(checker.holds_initially(parse_formula("A ((p | q) U r)")));
}

TEST(CtlChecker, ReleaseOperators) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  // A (false R r) == AG r; E (false R r) == EG r.
  EXPECT_EQ(checker.sat(parse_formula("A (false R r)")).count(),
            checker.sat(parse_formula("A G r")).count());
  EXPECT_EQ(checker.sat(parse_formula("E (false R r)")).count(),
            checker.sat(parse_formula("E G r")).count());
  // E (r R true) is everything (true holds until released, trivially).
  EXPECT_TRUE(checker.sat(parse_formula("E (r R true)")).all());
}

TEST(CtlChecker, EgOnCycleNeedsRecurrence) {
  // a -> b -> a: EG a fails (must leave a), EF a holds everywhere.
  auto reg = kripke::make_registry();
  const auto m = testing::two_state_loop(reg);
  CtlChecker checker(m);
  EXPECT_TRUE(checker.sat(parse_formula("E G a")).none());
  EXPECT_TRUE(checker.sat(parse_formula("A F b")).all());
  EXPECT_TRUE(checker.sat(parse_formula("A G (a -> A F b)")).all());
}

TEST(CtlChecker, RejectsNonCtl) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  EXPECT_THROW(static_cast<void>(checker.sat(parse_formula("A (F p & G q)"))),
               LogicError);
}

TEST(CtlChecker, UnknownAtomPolicy) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  // A name the registry does not know is an error...
  EXPECT_THROW(static_cast<void>(checker.sat(parse_formula("nosuch"))), LogicError);
  // ...a registered name that labels no state is false everywhere.
  static_cast<void>(reg->plain("nosuch"));
  EXPECT_TRUE(checker.sat(parse_formula("nosuch")).none());
}

TEST(CtlChecker, RequiresTotalStructure) {
  auto reg = kripke::make_registry();
  kripke::StructureBuilder b(reg);
  const auto s0 = b.add_state({});
  const auto s1 = b.add_state({});
  b.add_transition(s0, s1);
  b.set_initial(s0);
  const auto m = std::move(b).build({.require_total = false});
  EXPECT_THROW(CtlChecker checker(m), ModelError);
}

TEST(CtlChecker, IndexQuantifiersExpandOverIndexSet) {
  auto reg = kripke::make_registry();
  const auto d1 = reg->indexed("d", 1);
  const auto d2 = reg->indexed("d", 2);
  kripke::StructureBuilder b(reg);
  const auto s0 = b.add_state({d1});
  const auto s1 = b.add_state({d1, d2});
  b.add_transition(s0, s1);
  b.add_transition(s1, s0);
  b.set_initial(s0);
  b.set_index_set({1, 2});
  const auto m = std::move(b).build();
  CtlChecker checker(m);
  const auto& all = checker.sat(parse_formula("forall i. d[i]"));
  EXPECT_FALSE(all.test(0));
  EXPECT_TRUE(all.test(1));
  const auto& some = checker.sat(parse_formula("exists i. d[i]"));
  EXPECT_TRUE(some.test(0));
  EXPECT_TRUE(some.test(1));
}

TEST(CtlChecker, EmptyIndexSetIsAnError) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  EXPECT_THROW(static_cast<void>(checker.sat(parse_formula("forall i. p"))),
               LogicError);
}

TEST(CtlChecker, ExactlyOneComputedFromIndexedProps) {
  auto reg = kripke::make_registry();
  const auto t1 = reg->indexed("t", 1);
  const auto t2 = reg->indexed("t", 2);
  kripke::StructureBuilder b(reg);
  const auto s0 = b.add_state({t1});
  const auto s1 = b.add_state({t1, t2});
  const auto s2 = b.add_state({});
  b.add_transition(s0, s1);
  b.add_transition(s1, s2);
  b.add_transition(s2, s0);
  b.set_initial(s0);
  b.set_index_set({1, 2});
  const auto m = std::move(b).build();
  CtlChecker checker(m);
  const auto& one = checker.sat(parse_formula("one t"));
  EXPECT_TRUE(one.test(0));
  EXPECT_FALSE(one.test(1));
  EXPECT_FALSE(one.test(2));
}

}  // namespace
}  // namespace ictl::mc
