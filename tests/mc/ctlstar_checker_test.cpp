#include "mc/ctlstar_checker.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "logic/parser.hpp"

namespace ictl::mc {
namespace {

using logic::parse_formula;

logic::FormulaPtr parse_x(const char* text) {
  logic::ParseOptions options;
  options.allow_nexttime = true;
  return logic::parse_formula(text, options);
}

// 0{p} -> 1{q} -> 2{p,q} -> 2, plus 1 -> 0 (a loop through p,q).
kripke::Structure three_states(kripke::PropRegistryPtr reg) {
  kripke::StructureBuilder b(reg);
  const auto p = reg->plain("p");
  const auto q = reg->plain("q");
  const auto s0 = b.add_state({p});
  const auto s1 = b.add_state({q});
  const auto s2 = b.add_state({p, q});
  b.add_transition(s0, s1);
  b.add_transition(s1, s0);
  b.add_transition(s1, s2);
  b.add_transition(s2, s2);
  b.set_initial(s0);
  return std::move(b).build();
}

TEST(CtlStarChecker, GenuinePathBooleans) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  // E(F p & G q): a path reaching the {p,q} sink and staying q forever
  // requires starting where q can hold from the first step... from s1: path
  // 1 -> 2 -> 2...: F p (at 2) and G q (q at 1, q at 2) hold.
  const auto& sat = checker.sat(parse_formula("E (F p & G q)"));
  EXPECT_TRUE(sat.test(1));
  EXPECT_TRUE(sat.test(2));
  EXPECT_FALSE(sat.test(0));  // s0 has no q, so G q fails immediately
}

TEST(CtlStarChecker, NestedPathOperators) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  // E F G q: eventually forever-q (the sink).
  EXPECT_TRUE(checker.sat(parse_formula("E F G q")).all());
  // A F G q fails at 0: the 0 <-> 1 loop forever avoids the sink... but F G q
  // requires eventually staying in q; looping 0,1,0,1 never satisfies G q.
  EXPECT_FALSE(checker.sat(parse_formula("A F G q")).test(0));
}

TEST(CtlStarChecker, AgreesWithCtlOnCtlFormulas) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  CheckerOptions no_fast;
  no_fast.use_ctl_fast_path = false;
  Checker generic(m, no_fast);
  CtlChecker ctl(m);
  for (const char* text :
       {"p", "!p & q", "E F p", "A G (p | q)", "A (p U q)", "E G q",
        "A G (q -> E F p)", "E (q R p)", "A F q"}) {
    const auto f = parse_formula(text);
    EXPECT_TRUE(generic.sat(f) == ctl.sat(f)) << text;
  }
  EXPECT_EQ(generic.stats().ctl_fast_path_hits, 0u);
  EXPECT_GT(generic.stats().tableau_builds, 0u);
}

TEST(CtlStarChecker, FastPathIsUsedByDefault) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  static_cast<void>(checker.sat(parse_formula("A G (p -> E F q)")));
  EXPECT_GT(checker.stats().ctl_fast_path_hits, 0u);
  EXPECT_EQ(checker.stats().tableau_builds, 0u);
}

TEST(CtlStarChecker, EOfStateFormulaIsIdentity) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  CheckerOptions no_fast;
  no_fast.use_ctl_fast_path = false;
  Checker checker(m, no_fast);
  EXPECT_TRUE(checker.sat(parse_formula("E p")) == checker.sat(parse_formula("p")));
  EXPECT_TRUE(checker.sat(parse_formula("A (p | q)")) ==
              checker.sat(parse_formula("p | q")));
}

TEST(CtlStarChecker, UntilWithStateSubformulas) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  // E[ (E F q) U (p & q) ]: EF q holds everywhere, so this is EF(p & q).
  const auto lhs = checker.sat(parse_formula("E ((E F q) U (p & q))"));
  const auto rhs = checker.sat(parse_formula("E F (p & q)"));
  EXPECT_TRUE(lhs == rhs);
}

TEST(CtlStarChecker, NexttimeSupportedInternally) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  // E X q: some successor satisfies q.
  const auto& sat = checker.sat(parse_x("E X q"));
  EXPECT_TRUE(sat.test(0));   // 0 -> 1{q}
  EXPECT_TRUE(sat.test(1));   // 1 -> 2{p,q}
  EXPECT_TRUE(sat.test(2));   // 2 -> 2{q}
  const auto& sat_p = checker.sat(parse_x("A X p"));
  EXPECT_FALSE(sat_p.test(0));  // 0 -> 1 lacks p
  EXPECT_TRUE(sat_p.test(1) || !sat_p.test(1));  // evaluated without throwing
}

TEST(CtlStarChecker, MemoizationReturnsSameSet) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  const auto f = parse_formula("E (F p & G q)");
  const auto& first = checker.sat(f);
  const auto& second = checker.sat(f);
  EXPECT_EQ(&first, &second);
}

TEST(CtlStarChecker, FastPathPropagatesUnknownAtomPolicy) {
  // Both routes through Checker -- the lazily created CTL fast path and the
  // tableau -- resolve atoms the same way: an unknown name throws, a
  // registered name that labels no state reads as false.
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  // The formula is CTL, so with the fast path enabled it is decided by the
  // compiled-program checker.
  const auto f = parse_formula("A G (nosuch -> p)");
  CheckerOptions no_fast;
  no_fast.use_ctl_fast_path = false;
  {
    Checker fast(m);
    Checker tableau(m, no_fast);
    EXPECT_THROW(static_cast<void>(fast.sat(f)), LogicError);
    EXPECT_THROW(static_cast<void>(tableau.sat(f)), LogicError);
  }

  static_cast<void>(reg->plain("nosuch"));
  Checker fast(m);
  Checker tableau(m, no_fast);
  // Vacuously true everywhere once the atom reads as false.
  EXPECT_TRUE(fast.sat(f).all());
  EXPECT_TRUE(fast.sat(f) == tableau.sat(f));
  EXPECT_EQ(fast.stats().ctl_fast_path_hits, 1u);
  EXPECT_EQ(tableau.stats().ctl_fast_path_hits, 0u);
}

TEST(CtlStarChecker, FastPathExposesEvalCoreStats) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  EXPECT_EQ(checker.ctl_eval_stats().programs_run, 0u);
  static_cast<void>(checker.sat(parse_formula("A G (p -> A F q)")));
  const eval::EvalStats stats = checker.ctl_eval_stats();
  EXPECT_EQ(stats.programs_run, 1u);
  EXPECT_GT(stats.instructions, 0u);
  EXPECT_GT(stats.fixpoint_ops, 0u);
  EXPECT_GT(stats.fixpoint_iterations, 0u);
  EXPECT_GT(stats.register_high_water, 0u);
}

TEST(CtlStarChecker, RejectsPathFormulaAtTopLevel) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  EXPECT_THROW(static_cast<void>(checker.sat(parse_formula("p U q"))), LogicError);
}

TEST(CtlStarChecker, DeepNestingOfQuantifiersAndPaths) {
  auto reg = kripke::make_registry();
  const auto m = three_states(reg);
  Checker checker(m);
  // A G (E (q U (A F q & p)) | !q): exercises E inside A with state
  // subformula abstraction.
  EXPECT_NO_THROW(
      static_cast<void>(checker.sat(parse_formula("A G (E (q U (A F q & p)) | !q)"))));
}

class RandomAgreement : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomAgreement, GenericMatchesCtlOnRandomStructures) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 30, GetParam());
  CheckerOptions no_fast;
  no_fast.use_ctl_fast_path = false;
  Checker generic(m, no_fast);
  CtlChecker ctl(m);
  for (const char* text : {"E F (p & q)", "A G (p -> A F q)", "E (p U q)",
                           "A (q U (p | q))", "E G p", "A F (p | q)"}) {
    const auto f = parse_formula(text);
    EXPECT_TRUE(generic.sat(f) == ctl.sat(f)) << text << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAgreement,
                         ::testing::Values(1u, 5u, 9u, 13u, 21u, 33u, 77u));

}  // namespace
}  // namespace ictl::mc
