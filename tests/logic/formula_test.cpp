#include "logic/formula.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "support/error.hpp"

namespace ictl::logic {
namespace {

TEST(Formula, HashConsingGivesPointerIdentity) {
  const FormulaPtr a1 = atom("p");
  const FormulaPtr a2 = atom("p");
  EXPECT_EQ(a1.get(), a2.get());
  const FormulaPtr f1 = make_and(atom("p"), atom("q"));
  const FormulaPtr f2 = make_and(atom("p"), atom("q"));
  EXPECT_EQ(f1.get(), f2.get());
  EXPECT_NE(f1.get(), make_and(atom("q"), atom("p")).get());
}

TEST(Formula, KindsAndChildren) {
  const FormulaPtr u = make_until(atom("a"), atom("b"));
  EXPECT_EQ(u->kind(), Kind::kUntil);
  EXPECT_EQ(u->lhs()->name(), "a");
  EXPECT_EQ(u->rhs()->name(), "b");
  const FormulaPtr e = make_E(u);
  EXPECT_EQ(e->kind(), Kind::kExistsPath);
  EXPECT_EQ(e->lhs().get(), u.get());
}

TEST(Formula, IndexedAtoms) {
  const FormulaPtr var = iatom("d", "i");
  EXPECT_EQ(var->kind(), Kind::kIndexedAtom);
  EXPECT_EQ(var->name(), "d");
  EXPECT_EQ(var->index_var(), "i");
  EXPECT_FALSE(var->index_value().has_value());

  const FormulaPtr val = iatom_val("d", 3);
  ASSERT_TRUE(val->index_value().has_value());
  EXPECT_EQ(*val->index_value(), 3u);
  EXPECT_NE(var.get(), val.get());
  EXPECT_NE(iatom("d", "i").get(), iatom("d", "j").get());
}

TEST(Formula, QuantifiersCarryVariable) {
  const FormulaPtr f = forall_index("i", iatom("c", "i"));
  EXPECT_EQ(f->kind(), Kind::kForallIndex);
  EXPECT_EQ(f->name(), "i");
  const FormulaPtr g = exists_index("i", iatom("c", "i"));
  EXPECT_EQ(g->kind(), Kind::kExistsIndex);
}

TEST(Formula, VariadicConjunction) {
  EXPECT_EQ(make_and(std::vector<FormulaPtr>{})->kind(), Kind::kTrue);
  EXPECT_EQ(make_or(std::vector<FormulaPtr>{})->kind(), Kind::kFalse);
  const FormulaPtr f = make_and({atom("a"), atom("b"), atom("c")});
  EXPECT_EQ(f->kind(), Kind::kAnd);
  EXPECT_EQ(formula_size(f), 5u);  // ((a & b) & c)
}

TEST(Formula, ConvenienceCombinators) {
  EXPECT_EQ(AG(atom("p"))->kind(), Kind::kForallPath);
  EXPECT_EQ(AG(atom("p"))->lhs()->kind(), Kind::kAlways);
  EXPECT_EQ(EF(atom("p"))->lhs()->kind(), Kind::kEventually);
  EXPECT_EQ(AU(atom("a"), atom("b"))->lhs()->kind(), Kind::kUntil);
}

TEST(Formula, RejectsEmptyNames) {
  EXPECT_THROW(static_cast<void>(atom("")), LogicError);
  EXPECT_THROW(static_cast<void>(iatom("", "i")), LogicError);
  EXPECT_THROW(static_cast<void>(iatom("d", "")), LogicError);
  EXPECT_THROW(static_cast<void>(exactly_one("")), LogicError);
}

TEST(Formula, RejectsNullOperands) {
  EXPECT_THROW(static_cast<void>(make_not(nullptr)), LogicError);
  EXPECT_THROW(static_cast<void>(make_and(atom("a"), nullptr)), LogicError);
  EXPECT_THROW(static_cast<void>(make_E(nullptr)), LogicError);
}

TEST(Formula, SizeCountsTreeNodes) {
  EXPECT_EQ(formula_size(atom("a")), 1u);
  EXPECT_EQ(formula_size(make_not(atom("a"))), 2u);
  EXPECT_EQ(formula_size(make_until(atom("a"), atom("b"))), 3u);
}

TEST(Formula, NodeIdentityFollowsHashConsing) {
  // Structurally equal formulas are one node with one id; distinct nodes
  // have distinct ids.  Checkers key memo caches on id (never reused), so
  // these invariants are what makes cross-engine cache sharing sound.
  const FormulaPtr a1 = make_and(atom("idp"), atom("idq"));
  const FormulaPtr a2 = make_and(atom("idp"), atom("idq"));
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_EQ(a1->id(), a2->id());
  const FormulaPtr b = make_or(atom("idp"), atom("idq"));
  EXPECT_NE(a1->id(), b->id());
  EXPECT_NE(a1->id(), a1->lhs()->id());
}

TEST(Formula, NodeIdsAreNeverReused) {
  // Let a formula die, rebuild it: the cons table may hand back a new node
  // (the weak entry expired), but its id must be fresh — stale memo entries
  // keyed by the dead id can then never alias the rebuilt formula.
  std::uint64_t dead_id;
  {
    const FormulaPtr f = make_until(atom("id_dead_a"), atom("id_dead_b"));
    dead_id = f->id();
  }
  const FormulaPtr rebuilt = make_until(atom("id_dead_a"), atom("id_dead_b"));
  EXPECT_GT(rebuilt->id(), dead_id);
}

TEST(Formula, HashConsTableStaysBoundedUnderChurn) {
  // 120k distinct formulas (240k nodes), each dropped at once: the expired
  // table entries they leave behind must be swept, not accumulate.
  const FormulaPtr kept = make_and(atom("churn_kept"), atom("churn_q"));
  const std::size_t bound = 2 * hash_cons_table_size() + 4096;
  std::size_t peak = 0;
  for (int i = 0; i < 120000; ++i) {
    const FormulaPtr f = make_and(atom("churn_" + std::to_string(i)), atom("churn_q"));
    peak = std::max(peak, hash_cons_table_size());
  }
  EXPECT_LE(peak, bound);
  // Sweeping dropped only dead entries: live formulas keep their identity.
  EXPECT_EQ(make_and(atom("churn_kept"), atom("churn_q")).get(), kept.get());
}

}  // namespace
}  // namespace ictl::logic
