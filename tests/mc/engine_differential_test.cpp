// Differential tests for the CSR fixpoint engine: seeded random Kripke
// structures and random CTL formulas are checked by the production
// CtlChecker (frontier worklists, scratch arena) and by the naive reference
// implementation (naive_reference.hpp, the pre-CSR algorithms), which must
// agree on every state.  Plus directed EG-frontier edge cases: self-loops,
// SCC-free chains, and the all-states fixpoint where nothing ever leaves
// the candidate set.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "logic/printer.hpp"
#include "mc/ctl_checker.hpp"
#include "naive_reference.hpp"

namespace ictl::mc {
namespace {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : x_(seed * 2654435761u + 1) {}
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

/// Random CTL state formula of bounded depth over atoms {p, q}, matching
/// the grammar the naive reference evaluator supports.
logic::FormulaPtr random_ctl(Rng& rng, std::size_t depth) {
  using namespace logic;
  if (depth == 0) {
    switch (rng.below(4)) {
      case 0: return atom("p");
      case 1: return atom("q");
      case 2: return f_true();
      default: return make_not(atom("p"));
    }
  }
  switch (rng.below(10)) {
    case 0: return make_not(random_ctl(rng, depth - 1));
    case 1: return make_and(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
    case 2: return make_or(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
    case 3: return make_implies(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
    case 4: return EF(random_ctl(rng, depth - 1));
    case 5: return EG(random_ctl(rng, depth - 1));
    case 6: return AF(random_ctl(rng, depth - 1));
    case 7: return AG(random_ctl(rng, depth - 1));
    case 8: return EU(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
    default: return AU(random_ctl(rng, depth - 1), random_ctl(rng, depth - 1));
  }
}

class EngineDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(EngineDifferential, EngineAgreesWithNaiveReference) {
  const auto [structure_seed, formula_seed] = GetParam();
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 30, structure_seed);
  CtlChecker engine(m);

  Rng rng(formula_seed);
  for (int k = 0; k < 40; ++k) {
    const auto f = random_ctl(rng, 1 + rng.below(3));
    const SatSet& fast = engine.sat(f);
    const SatSet naive_result = naive::sat(m, f);
    EXPECT_TRUE(fast == naive_result)
        << "structure seed " << structure_seed << ", formula "
        << logic::to_string(f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineDifferential,
    ::testing::Combine(::testing::Values(2u, 5u, 13u, 31u),
                       ::testing::Values(3u, 17u, 41u, 71u)));

TEST(EngineDifferential, AgreesOnTheRingFamilies) {
  // The Section 5 ring properties must still hold through the new engine,
  // and on the same structures the engine must agree with the naive
  // reference on randomized formulas (the ring labels no state with the
  // plain p/q, so once registered they read as false in both).
  for (const std::uint32_t r : {3u, 4u, 5u}) {
    const auto sys = testing::ring_of(r);
    static_cast<void>(sys.structure().registry()->plain("p"));
    static_cast<void>(sys.structure().registry()->plain("q"));
    CtlChecker engine(sys.structure());
    for (const auto& [name, f] : ring::section5_specifications())
      EXPECT_TRUE(engine.holds_initially(f)) << "r=" << r << " " << name;

    Rng rng(r * 1000 + 7);
    for (int k = 0; k < 10; ++k) {
      const auto f = random_ctl(rng, 2);
      EXPECT_TRUE(engine.sat(f) == naive::sat(sys.structure(), f))
          << "r=" << r << " " << logic::to_string(f);
    }
  }
}

// ---- EG frontier edge cases -------------------------------------------

using kripke::StateId;

kripke::Structure chain_into_loop(const kripke::PropRegistryPtr& reg,
                                  std::uint32_t chain_len, bool label_all) {
  // s0 -> s1 -> ... -> s_{chain_len-1} -> self-loop on the last state.
  // SCC-free except for the final self-loop.
  kripke::StructureBuilder b(reg);
  const auto p = reg->plain("p");
  std::vector<StateId> states;
  for (std::uint32_t i = 0; i < chain_len; ++i) {
    if (label_all || i + 1 == chain_len)
      states.push_back(b.add_state({p}));
    else
      states.push_back(b.add_state({}));
  }
  for (std::uint32_t i = 0; i + 1 < chain_len; ++i)
    b.add_transition(states[i], states[i + 1]);
  b.add_transition(states.back(), states.back());
  b.set_initial(states.front());
  return std::move(b).build();
}

TEST(EgFrontier, SelfLoopSurvives) {
  auto reg = kripke::make_registry();
  const auto m = chain_into_loop(reg, 5, /*label_all=*/true);
  CtlChecker checker(m);
  // Every state satisfies p and leads into the p-self-loop: EG p everywhere.
  const SatSet& result = checker.sat(logic::EG(logic::atom("p")));
  EXPECT_EQ(result.count(), m.num_states());
}

TEST(EgFrontier, SccFreeChainDrainsCompletely) {
  auto reg = kripke::make_registry();
  // Only the last state is labeled p; EG p = {last} (its self-loop).
  const auto m = chain_into_loop(reg, 6, /*label_all=*/false);
  CtlChecker checker(m);
  const SatSet& result = checker.sat(logic::EG(logic::atom("p")));
  EXPECT_EQ(result.count(), 1u);
  EXPECT_TRUE(result.test(static_cast<StateId>(m.num_states() - 1)));
  // And the converse: EG !p must drain the whole chain (every !p state
  // eventually falls off the end of the chain into the p-loop).
  const SatSet& none =
      checker.sat(logic::EG(logic::make_not(logic::atom("p"))));
  EXPECT_TRUE(none.none());
}

TEST(EgFrontier, AllStatesFixpointNeverShrinks) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 25, 99);
  CtlChecker checker(m);
  // EG true on a total structure is all states: the frontier never fires.
  const SatSet& result = checker.sat(logic::EG(logic::f_true()));
  EXPECT_EQ(result.count(), m.num_states());
  EXPECT_TRUE(result.all());
}

TEST(EgFrontier, MatchesNaiveOnDirectedShapes) {
  auto reg = kripke::make_registry();
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const auto m = testing::random_structure(reg, 40, seed);
    CtlChecker checker(m);
    for (const auto& f :
         {logic::EG(logic::atom("p")), logic::EG(logic::atom("q")),
          logic::EG(logic::make_or(logic::atom("p"), logic::atom("q"))),
          logic::EG(logic::make_not(logic::atom("p")))}) {
      EXPECT_TRUE(checker.sat(f) == naive::sat(m, f))
          << "seed " << seed << " " << logic::to_string(f);
    }
  }
}

}  // namespace
}  // namespace ictl::mc
