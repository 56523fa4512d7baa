// Budget-trip stress suite: the proof that a tripped budget or failpoint
// leaves every engine consistent and reusable.  Each test installs a tight
// ResourceBudget (or arms a deterministic failpoint), drives a query until
// the typed error unwinds, then — with the scope closed — audits the
// touched managers (audit(kFull)) and re-runs the same query unbudgeted,
// demanding the correct answer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "../helpers.hpp"
#include "bisim/correspondence.hpp"
#include "mc/ctl_checker.hpp"
#include "rt/budget.hpp"
#include "rt/failpoint.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::rt {
namespace {

using symbolic::Bdd;
using symbolic::TransitionSystem;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed * 2654435761u + 7) {}
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t x_;
};

/// Random CTL formula over the plain atoms p/q (the CTL fragment both the
/// explicit and symbolic engines run through the compiled core).
logic::FormulaPtr random_ctl(Rng& rng, std::size_t depth) {
  using namespace logic;
  if (depth == 0) {
    switch (rng.below(3)) {
      case 0: return atom("p");
      case 1: return atom("q");
      default: return f_true();
    }
  }
  switch (rng.below(8)) {
    case 0: return make_not(random_ctl(rng, depth - 1));
    case 1: return make_and(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
    case 2: return EF(random_ctl(rng, depth - 1));
    case 3: return EG(random_ctl(rng, depth - 1));
    case 4: return AF(random_ctl(rng, depth - 1));
    case 5: return AG(random_ctl(rng, depth - 1));
    case 6: return EU(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
    default: return AU(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
  }
}

using ictl::testing::contains;

/// The unbudgeted explicit-engine verdict — ground truth for every retry.
mc::SatSet reference_sat(const kripke::Structure& m, const logic::FormulaPtr& f) {
  mc::CtlChecker checker(m);
  return checker.sat(f);
}

TEST(BudgetTrip, SymbolicIterationCapTripsAuditsCleanAndRetries) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 11);
  const auto f = logic::AG(logic::EF(logic::atom("p")));
  auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
  symbolic::CtlChecker checker(ts);

  ResourceBudget budget(BudgetLimits{.iteration_cap = 1});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "iteration cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kIterations);
    EXPECT_FALSE(e.phase().empty());
  }

  // The scope closed with the unwind: the manager must be audit-clean and
  // the SAME checker must produce the correct answer unthrottled.
  const auto rep = ts->manager().audit();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  const mc::SatSet want = reference_sat(m, f);
  const Bdd sym = checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, NodeCapLadderTripsTypedAndManagerStaysUsable) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 3);
  const auto f = logic::EU(logic::atom("p"), logic::atom("q"));
  auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
  symbolic::CtlChecker checker(ts);

  // A cap far below what the query needs: the GC -> forced-sift ladder
  // cannot get under it, so the manager trips kNodes from its
  // deferred-maintenance point (phase bdd/node_cap).
  ResourceBudget budget(BudgetLimits{.node_cap = 4});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "node cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kNodes);
    EXPECT_EQ(e.phase(), "bdd/node_cap");
  }

  const auto rep = ts->manager().audit();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  const mc::SatSet want = reference_sat(m, f);
  const Bdd sym = checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, GenerousNodeCapDegradesGracefullyInsteadOfTripping) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 5);
  const auto f = logic::AF(logic::atom("q"));
  auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
  symbolic::CtlChecker checker(ts);

  // Plenty of room: the ladder's GC (and at worst one forced sift) keeps
  // the population under the cap and the query completes.
  ResourceBudget budget(BudgetLimits{.node_cap = 1u << 20});
  const mc::SatSet want = reference_sat(m, f);
  {
    const BudgetScope scope(budget);
    const Bdd sym = checker.sat(f);
    for (kripke::StateId s = 0; s < m.num_states(); ++s)
      EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "state " << s;
  }
  const auto rep = ts->manager().audit();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
}

TEST(BudgetTrip, ExplicitEngineWorkCapTripsAndRetries) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 7);
  const auto f = logic::AU(logic::atom("p"), logic::EF(logic::atom("q")));
  mc::CtlChecker checker(m);

  ResourceBudget budget(BudgetLimits{.work_cap = 2});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "work cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kWork);
  }

  const mc::SatSet want = reference_sat(m, f);
  const mc::SatSet& got = checker.sat(f);  // same checker, post-trip
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(got.test(s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, WallClockDeadlineTripsTyped) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 9);
  const auto f = logic::AG(logic::EF(logic::atom("p")));
  mc::CtlChecker checker(m);

  ResourceBudget budget(BudgetLimits{.deadline_ns = 1});
  while (budget.elapsed_ns() < 2) {
  }
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "deadline never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kWallClock);
  }
  const mc::SatSet want = reference_sat(m, f);
  const mc::SatSet& got = checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(got.test(s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, CancellationUnwindsAsInterrupted) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 13);
  const auto f = logic::EG(logic::atom("p"));
  auto ts = std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
  symbolic::CtlChecker checker(ts);

  CancellationToken token;
  token.cancel();  // already cancelled: the first checkpoint unwinds
  ResourceBudget budget(BudgetLimits{}, token);
  try {
    const BudgetScope scope(budget);
    static_cast<void>(checker.sat(f));
    FAIL() << "cancellation never observed";
  } catch (const Interrupted&) {
  }
  const auto rep = ts->manager().audit();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  const mc::SatSet want = reference_sat(m, f);
  const Bdd sym = checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s)
    EXPECT_EQ(contains(*ts, sym, s), want.test(s)) << "state " << s;
}

TEST(BudgetTrip, CorrespondenceIterationCapTripsAndRetries) {
  auto reg = kripke::make_registry();
  const auto m1 = testing::random_structure(reg, 18, 21);
  const auto m2 = testing::random_structure(reg, 18, 21);
  const bisim::FindResult want = bisim::find_correspondence(m1, m2);

  ResourceBudget budget(BudgetLimits{.iteration_cap = 1});
  try {
    const BudgetScope scope(budget);
    static_cast<void>(bisim::find_correspondence(m1, m2));
    FAIL() << "iteration cap never tripped";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetKind::kIterations);
  }
  const bisim::FindResult again = bisim::find_correspondence(m1, m2);
  EXPECT_EQ(again.relation.has_value(), want.relation.has_value());
  EXPECT_EQ(again.surviving_pairs, want.surviving_pairs);
}

TEST(BudgetTrip, SymbolicFailpointsLeaveTheManagerReusable) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 28, 17);
  const auto f =
      logic::make_and(logic::EU(logic::atom("p"), logic::atom("q")),
                      logic::EG(logic::atom("q")));
  const mc::SatSet want = reference_sat(m, f);

  for (const char* site :
       {"sym/eu_iter", "sym/eg_iter", "sym/reach_round", "eval/instruction"}) {
    auto ts =
        std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
    symbolic::CtlChecker checker(ts);
    arm_failpoint(site);
    try {
      static_cast<void>(checker.sat(f));
      // Sites not on this formula's path simply never fire.
      disarm_failpoints();
    } catch (const Interrupted&) {
      EXPECT_EQ(armed_failpoints(), 0u) << site << " is not one-shot";
    }
    const auto rep = ts->manager().audit();
    ASSERT_TRUE(rep.ok()) << "after " << site << ":\n" << rep.to_string();
    const Bdd sym = checker.sat(f);  // one-shot: the retry runs through
    for (kripke::StateId s = 0; s < m.num_states(); ++s)
      EXPECT_EQ(contains(*ts, sym, s), want.test(s))
          << "site " << site << ", state " << s;
  }
}

TEST(BudgetTrip, SeededRandomTripStress) {
  // Random formulas under random tight budgets, across both engines: any
  // trip must be one of the typed errors, the manager must audit clean,
  // and the unbudgeted retry must match the reference verdict per state.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 24, 31 + seed);
    auto ts =
        std::make_shared<const TransitionSystem>(symbolic::from_structure(m));
    symbolic::CtlChecker symbolic_checker(ts);
    mc::CtlChecker explicit_checker(m);

    for (int round = 0; round < 8; ++round) {
      const auto f = random_ctl(rng, 1 + rng.below(3));
      const mc::SatSet want = reference_sat(m, f);

      BudgetLimits limits;
      switch (rng.below(3)) {
        case 0: limits.iteration_cap = 1 + rng.below(4); break;
        case 1: limits.work_cap = 1 + rng.below(64); break;
        default: limits.node_cap = 4 + rng.below(64); break;
      }
      ResourceBudget budget(limits);
      const bool use_symbolic = rng.below(2) == 0;
      try {
        const BudgetScope scope(budget);
        if (use_symbolic)
          static_cast<void>(symbolic_checker.sat(f));
        else
          static_cast<void>(explicit_checker.sat(f));
        // Tiny queries can legitimately fit the budget; that's fine.
      } catch (const BudgetExceeded& e) {
        EXPECT_FALSE(e.phase().empty()) << "seed " << seed;
      }

      const auto rep = ts->manager().audit();
      ASSERT_TRUE(rep.ok())
          << "seed " << seed << " round " << round << ":\n" << rep.to_string();
      if (use_symbolic) {
        const Bdd sym = symbolic_checker.sat(f);
        for (kripke::StateId s = 0; s < m.num_states(); ++s)
          ASSERT_EQ(contains(*ts, sym, s), want.test(s))
              << "seed " << seed << " round " << round << " state " << s;
      } else {
        const mc::SatSet& got = explicit_checker.sat(f);
        for (kripke::StateId s = 0; s < m.num_states(); ++s)
          ASSERT_EQ(got.test(s), want.test(s))
              << "seed " << seed << " round " << round << " state " << s;
      }
    }
  }
}

}  // namespace
}  // namespace ictl::rt
