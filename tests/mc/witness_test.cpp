#include "mc/witness.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "logic/parser.hpp"
#include "ring/ring.hpp"

namespace ictl::mc {
namespace {

using logic::parse_formula;

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

TEST(Witness, EfProducesAPathToTheTarget) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  const auto f = parse_formula("E F r");
  const auto e = explain(checker, f, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, WitnessKind::kWitness);
  EXPECT_TRUE(validate_trace(checker, e->shape, e->trace, 0));
  EXPECT_EQ(e->trace.states.back(), 3u);  // the r-state
  EXPECT_FALSE(e->trace.is_lasso());
}

TEST(Witness, EfWitnessIsShortest) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  const auto e = explain(checker, parse_formula("E F r"), 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->trace.states.size(), 3u);  // 0 -> {1 or 2} -> 3
}

TEST(Witness, EuRespectsTheLeftOperand) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  const auto e = explain(checker, parse_formula("E (p U r)"), 0);
  ASSERT_TRUE(e.has_value());
  ASSERT_TRUE(validate_trace(checker, e->shape, e->trace, 0));
  // Path must go through state 1 (p holds there), never state 2.
  for (const auto s : e->trace.states) EXPECT_NE(s, 2u);
}

TEST(Witness, EgProducesALasso) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  const auto e = explain(checker, parse_formula("E G (p | q | r)"), 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->trace.is_lasso());
  EXPECT_TRUE(validate_trace(checker, e->shape, e->trace, 0));
}

TEST(Witness, AgFailureGivesCounterexamplePath) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  const auto f = parse_formula("A G !r");  // fails: r is reachable
  ASSERT_FALSE(checker.sat(f).test(0));
  const auto e = explain(checker, f, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, WitnessKind::kCounterexample);
  EXPECT_TRUE(validate_trace(checker, e->shape, e->trace, 0));
  // The counterexample ends in an r-state.
  EXPECT_EQ(e->trace.states.back(), 3u);
}

TEST(Witness, AfFailureGivesLassoAvoidingTheTarget) {
  // a <-> b loop never reaches c.
  auto reg = kripke::make_registry();
  const auto m = testing::two_state_loop(reg);
  // Registered but labelling no state: "nonexistent" is false everywhere.
  static_cast<void>(reg->plain("nonexistent"));
  CtlChecker checker(m);
  const auto f = parse_formula("A F nonexistent");
  const auto e = explain(checker, f, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, WitnessKind::kCounterexample);
  EXPECT_TRUE(e->trace.is_lasso());
  EXPECT_TRUE(validate_trace(checker, e->shape, e->trace, 0));
}

TEST(Witness, AuFailureExplained) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  const auto f = parse_formula("A (p U r)");  // fails at 0 via the 0->2 branch
  ASSERT_FALSE(checker.sat(f).test(0));
  const auto e = explain(checker, f, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->kind, WitnessKind::kCounterexample);
  EXPECT_TRUE(validate_trace(checker, e->shape, e->trace, 0));
}

TEST(Witness, NoEvidenceForBooleanVerdicts) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  EXPECT_FALSE(explain(checker, parse_formula("p & !q"), 0).has_value());
}

TEST(Witness, HoldingAFormulaHasNoCounterexample) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  // AF r holds: no counterexample to produce.
  EXPECT_FALSE(explain(checker, parse_formula("A F r"), 0).has_value());
}

TEST(Witness, RingLivenessCounterexampleStory) {
  // "Every process eventually enters its critical section" fails on the
  // ring (nothing forces requests); the counterexample is a lasso where
  // process 2 never goes critical.
  const auto sys = testing::ring_of(3);
  CtlChecker checker(sys.structure());
  const auto f = parse_formula("A F c[2]");
  ASSERT_FALSE(checker.sat(f).test(sys.structure().initial()));
  const auto e = explain(checker, f, sys.structure().initial());
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->trace.is_lasso());
  EXPECT_TRUE(validate_trace(checker, e->shape, e->trace, sys.structure().initial()));
  const auto c2 = sys.structure().registry()->find_indexed("c", 2);
  ASSERT_TRUE(c2.has_value());
  for (const auto s : e->trace.states)
    EXPECT_FALSE(sys.structure().has_prop(s, *c2));
}

TEST(Witness, ValidateRejectsBrokenTraces) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  const auto shape = parse_formula("E F r");
  Trace bogus;
  bogus.states = {0, 3};  // 0 -> 3 is not an edge
  EXPECT_FALSE(validate_trace(checker, shape, bogus, 0));
  Trace wrong_start;
  wrong_start.states = {1, 3};
  EXPECT_FALSE(validate_trace(checker, shape, wrong_start, 0));
  Trace wrong_end;
  wrong_end.states = {0, 1};  // does not reach r
  EXPECT_FALSE(validate_trace(checker, shape, wrong_end, 0));
  Trace empty;
  EXPECT_FALSE(validate_trace(checker, shape, empty, 0));
}

TEST(Witness, TraceRendering) {
  auto reg = kripke::make_registry();
  const auto m = diamond(reg);
  CtlChecker checker(m);
  const auto e = explain(checker, parse_formula("E F r"), 0);
  ASSERT_TRUE(e.has_value());
  const std::string text = to_string(m, e->trace);
  EXPECT_NE(text.find("s0{p}"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
  EXPECT_NE(text.find("{r}"), std::string::npos);
}

class WitnessSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WitnessSweep, ProducedEvidenceAlwaysValidates) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 40, GetParam());
  CtlChecker checker(m);
  for (const char* text : {"E F (p & q)", "E G p", "E (p U q)", "A G p",
                           "A F q", "A (q U p)"}) {
    const auto f = parse_formula(text);
    for (kripke::StateId s = 0; s < m.num_states(); ++s) {
      const auto e = explain(checker, f, s);
      if (e.has_value()) {
        EXPECT_TRUE(validate_trace(checker, e->shape, e->trace, s))
            << text << " state " << s << " seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessSweep, ::testing::Values(3u, 7u, 19u, 41u));

}  // namespace
}  // namespace ictl::mc
