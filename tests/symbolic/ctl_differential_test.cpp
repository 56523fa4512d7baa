// The three-engine differential suite: symbolic::CtlChecker must agree —
// state for state — with the production mc::CtlChecker and with the naive
// reference implementation, on random structures, on the client-server
// stars, and on the Section 5 rings (including every Section 5
// specification), for all ring sizes the original ISSUE pins (r <= 12) —
// and, with sifting and scrambled initial orders in play, up to the
// million-state r = 16 instance (strided state sampling + exact sat-set
// counts there; the per-state loops stay exhaustive through r = 12).
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "../mc/naive_reference.hpp"
#include "logic/printer.hpp"
#include "mc/ctl_checker.hpp"
#include "network/star.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::symbolic {
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

/// Random CTL formula over the leaves the naive reference also supports.
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

/// Richer leaves for the symbolic-vs-explicit two-way comparison on rings:
/// concrete indexed atoms and the theta proposition, which the naive
/// evaluator does not handle.
logic::FormulaPtr random_ring_ctl(Rng& rng, std::uint32_t r, std::size_t depth) {
  using namespace logic;
  if (depth == 0) {
    const auto i = static_cast<std::uint32_t>(1 + rng.below(r));
    switch (rng.below(6)) {
      case 0: return iatom_val("d", i);
      case 1: return iatom_val("n", i);
      case 2: return iatom_val("t", i);
      case 3: return iatom_val("c", i);
      case 4: return exactly_one("t");
      default: return f_true();
    }
  }
  switch (rng.below(10)) {
    case 0: return make_not(random_ring_ctl(rng, r, depth - 1));
    case 1: return make_and(random_ring_ctl(rng, r, depth - 1),
                            random_ring_ctl(rng, r, depth - 1));
    case 2: return make_or(random_ring_ctl(rng, r, depth - 1),
                           random_ring_ctl(rng, r, depth - 1));
    case 3: return make_iff(random_ring_ctl(rng, r, depth - 1),
                            random_ring_ctl(rng, r, depth - 1));
    case 4: return EF(random_ring_ctl(rng, r, depth - 1));
    case 5: return EG(random_ring_ctl(rng, r, depth - 1));
    case 6: return AF(random_ring_ctl(rng, r, depth - 1));
    case 7: return AG(random_ring_ctl(rng, r, depth - 1));
    case 8: return EU(random_ring_ctl(rng, r, depth - 1),
                      random_ring_ctl(rng, r, depth - 1));
    default: return AU(random_ring_ctl(rng, r, depth - 1),
                       random_ring_ctl(rng, r, depth - 1));
  }
}

using ictl::testing::contains;

/// Asserts symbolic == explicit == naive on every state of `m`.
void expect_three_way_agreement(const kripke::Structure& m,
                                const logic::FormulaPtr& f, const char* context) {
  mc::CtlChecker explicit_checker(m);
  auto ts = std::make_shared<const TransitionSystem>(from_structure(m));
  CtlChecker symbolic_checker(ts);

  const mc::SatSet& fast = explicit_checker.sat(f);
  const mc::SatSet naive_result = mc::naive::sat(m, f);
  const Bdd sym = symbolic_checker.sat(f);
  for (kripke::StateId s = 0; s < m.num_states(); ++s) {
    EXPECT_EQ(fast.test(s), naive_result.test(s))
        << context << " explicit-vs-naive, state " << s << ", "
        << logic::to_string(f);
    EXPECT_EQ(contains(*ts, sym, s), fast.test(s))
        << context << " symbolic-vs-explicit, state " << s << ", "
        << logic::to_string(f);
  }
}

TEST(ThreeEngineDifferential, RandomStructures) {
  for (const std::uint32_t structure_seed : {2u, 13u, 31u}) {
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 22, structure_seed);
    Rng rng(structure_seed * 17 + 5);
    for (int k = 0; k < 12; ++k) {
      const auto f = random_ctl(rng, 1 + rng.below(3));
      expect_three_way_agreement(m, f, "random");
    }
  }
}

TEST(ThreeEngineDifferential, ClientServerStars) {
  // Stars reach the symbolic engine through the generic from_structure
  // bridge; the specs mix EU/AG/EF/AF over indexed atoms.
  for (const std::uint32_t n : {2u, 3u, 4u, 5u}) {
    const auto m = network::star_mutex(n);
    // The star labels no state with the plain p/q: registered, they read
    // as false in all three engines.
    static_cast<void>(m.registry()->plain("p"));
    static_cast<void>(m.registry()->plain("q"));
    auto ts = std::make_shared<const TransitionSystem>(from_structure(m));
    mc::CtlChecker explicit_checker(m);
    CtlChecker symbolic_checker(ts);
    for (const auto& [name, f] : network::star_specifications()) {
      EXPECT_EQ(symbolic_checker.holds_initially(f),
                explicit_checker.holds_initially(f))
          << "star n=" << n << " " << name;
    }
    // Random plain-atom formulas three ways.
    Rng rng(n * 99 + 1);
    for (int k = 0; k < 6; ++k)
      expect_three_way_agreement(m, random_ctl(rng, 2), "star");
  }
}

/// Both façades run one program per formula through one compiled core, so
/// every engine-independent counter matches (fixpoint_iterations does not:
/// worklist steps and BDD rounds are different units).
void expect_same_program_stats(const mc::CtlChecker& explicit_checker,
                               const CtlChecker& symbolic_checker, std::uint32_t r) {
  const auto& ec = explicit_checker.compile_stats();
  const auto& sc = symbolic_checker.compile_stats();
  EXPECT_EQ(ec.programs_compiled, sc.programs_compiled) << "r=" << r;
  EXPECT_EQ(ec.cse_hits, sc.cse_hits) << "r=" << r;
  const auto& ee = explicit_checker.eval_stats();
  const auto& se = symbolic_checker.eval_stats();
  EXPECT_GT(ee.programs_run, 0u) << "r=" << r;
  EXPECT_EQ(ee.programs_run, se.programs_run) << "r=" << r;
  EXPECT_EQ(ee.instructions, se.instructions) << "r=" << r;
  EXPECT_EQ(ee.leaf_evals, se.leaf_evals) << "r=" << r;
  EXPECT_EQ(ee.fixpoint_ops, se.fixpoint_ops) << "r=" << r;
  EXPECT_EQ(ee.register_high_water, se.register_high_water) << "r=" << r;
}

class RingDifferential : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RingDifferential, SectionFiveSpecificationsAgree) {
  const std::uint32_t r = GetParam();
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(r, reg);
  const SymbolicRing sym = build_symbolic_ring(r, nullptr, reg);
  mc::CtlChecker explicit_checker(explicit_sys.structure());
  CtlChecker symbolic_checker(sym.system);
  for (const auto& [name, f] : testing::section_five_properties()) {
    EXPECT_EQ(symbolic_checker.holds_initially(f),
              explicit_checker.holds_initially(f))
        << "r=" << r << " " << name;
    // The paper's specs all hold on the ring; pin the expected verdict too.
    EXPECT_TRUE(symbolic_checker.holds_initially(f)) << "r=" << r << " " << name;
  }
  expect_same_program_stats(explicit_checker, symbolic_checker, r);
}

TEST_P(RingDifferential, RandomFormulasAgreeStateForState) {
  const std::uint32_t r = GetParam();
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(r, reg);
  const auto& m = explicit_sys.structure();
  const SymbolicRing sym = build_symbolic_ring(r, nullptr, reg);
  mc::CtlChecker explicit_checker(m);
  CtlChecker symbolic_checker(sym.system);
  BddManager& mgr = sym.system->manager();

  Rng rng(r * 1013 + 3);
  const int rounds = r <= 6 ? 15 : 5;
  for (int k = 0; k < rounds; ++k) {
    const auto f = random_ring_ctl(rng, r, 1 + rng.below(3));
    const mc::SatSet& expected = explicit_checker.sat(f);
    const Bdd actual = symbolic_checker.sat(f);
    for (kripke::StateId s = 0; s < m.num_states(); ++s) {
      EXPECT_EQ(mgr.eval(actual, sym.assignment(explicit_sys.state(s))),
                expected.test(s))
          << "r=" << r << " state " << s << " " << logic::to_string(f);
    }
    // And the sat-set sizes line up (catches onto-ness, not just inclusion).
    EXPECT_EQ(sym.system->count_states(actual), SatCount::make(expected.count()))
        << "r=" << r << " " << logic::to_string(f);
  }
  expect_same_program_stats(explicit_checker, symbolic_checker, r);
}

TEST_P(RingDifferential, PlainAtomFormulasAgreeThreeWays) {
  // The naive reference only evaluates plain atoms (p/q, registered after
  // the ring builds and so reading false everywhere) — which is exactly what
  // makes it a good third opinion on the boolean/fixpoint plumbing of both
  // fast engines.
  const std::uint32_t r = GetParam();
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(r, reg);
  const auto& m = explicit_sys.structure();
  const SymbolicRing sym = build_symbolic_ring(r, nullptr, reg);
  static_cast<void>(reg->plain("p"));
  static_cast<void>(reg->plain("q"));
  mc::CtlChecker explicit_checker(m);
  CtlChecker symbolic_checker(sym.system);
  BddManager& mgr = sym.system->manager();

  Rng rng(r * 77 + 13);
  for (int k = 0; k < 8; ++k) {
    const auto f = random_ctl(rng, 2);
    const mc::SatSet& fast = explicit_checker.sat(f);
    const mc::SatSet naive_result = mc::naive::sat(m, f);
    const Bdd sym_set = symbolic_checker.sat(f);
    for (kripke::StateId s = 0; s < m.num_states(); ++s) {
      const bool expected = naive_result.test(s);
      EXPECT_EQ(fast.test(s), expected)
          << "r=" << r << " explicit-vs-naive, state " << s << ", "
          << logic::to_string(f);
      EXPECT_EQ(mgr.eval(sym_set, sym.assignment(explicit_sys.state(s))), expected)
          << "r=" << r << " symbolic-vs-naive, state " << s << ", "
          << logic::to_string(f);
    }
  }
}

// Every ring size the ISSUE pins: 2..12.  Sizes 11/12 exercise the
// 22528/49152-state instances; the per-state loops stay O(|S|) per formula.
INSTANTIATE_TEST_SUITE_P(AllSizes, RingDifferential,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u,
                                           11u, 12u));

using ictl::testing::scrambled_pair_order;

TEST(ThreeEngineDifferential, SurvivesSiftingAndRandomInitialOrders) {
  // The acceptance pin: the engines must still agree state-for-state when
  // the symbolic side runs with dynamic reordering enabled, with a
  // scrambled initial variable order, and with both at once.  Scoped
  // lifetimes let the sift-on legs run all the way to r = 16 (1048576
  // states): reorders sweep the dead fixpoint intermediates instead of
  // dragging them through every swap.  At r = 16 the per-state comparison
  // samples a coprime stride and the full sat-set is pinned exactly via
  // its exact state count; smaller sizes stay exhaustive.
  for (const std::uint32_t r : {3u, 5u, 8u, 16u}) {
    auto reg = kripke::make_registry();
    const auto explicit_sys = testing::ring_of(r, reg);
    const auto& m = explicit_sys.structure();
    mc::CtlChecker explicit_checker(m);
    const kripke::StateId stride = r >= 16 ? 257 : 1;
    const int rounds = r >= 16 ? 2 : 4;

    for (int variant = 0; variant < 3; ++variant) {
      const std::uint32_t num_bdd_vars = 2 * (2 * r + 1);
      auto mgr = std::make_shared<BddManager>(num_bdd_vars);
      if (variant != 0)  // scrambled order (alone, then with sifting on top)
        mgr->set_initial_order(scrambled_pair_order(num_bdd_vars, 41u * r + variant));
      const bool sift = variant != 1;
      const SymbolicRing sym = build_symbolic_ring(r, mgr, reg);
      if (sift) mgr->enable_dynamic_reordering(r >= 16 ? 4096 : 256);
      CtlChecker symbolic_checker(sym.system);

      for (const auto& [name, f] : testing::section_five_properties())
        EXPECT_EQ(symbolic_checker.holds_initially(f),
                  explicit_checker.holds_initially(f))
            << "r=" << r << " variant=" << variant << " " << name;
      Rng rng(r * 313 + variant);
      for (int k = 0; k < rounds; ++k) {
        const auto f = random_ring_ctl(rng, r, 1 + rng.below(2));
        const mc::SatSet& expected = explicit_checker.sat(f);
        const Bdd actual = symbolic_checker.sat(f);
        for (kripke::StateId s = 0; s < m.num_states(); s += stride)
          EXPECT_EQ(sym.system->manager().eval(
                        actual, sym.assignment(explicit_sys.state(s))),
                    expected.test(s))
              << "r=" << r << " variant=" << variant << " state " << s << " "
              << logic::to_string(f);
        // The exact set sizes agree — with a strided sample above this pins
        // the whole set far harder than the sample alone.
        EXPECT_EQ(sym.system->count_states(actual), SatCount::make(expected.count()))
            << "r=" << r << " variant=" << variant << " " << logic::to_string(f);
      }
      if (sift) {
        EXPECT_GE(mgr->stats().sift_passes, 1u)
            << "r=" << r << " variant=" << variant
            << ": the sift trigger never fired, so this leg proved nothing";
      }
    }
  }
}

TEST(SymbolicCtl, RejectsNonCtlAndFreeVariables) {
  const SymbolicRing sym = build_symbolic_ring(3);
  CtlChecker checker(sym.system);
  // E(F p | G q) is CTL* but not CTL.
  const auto not_ctl = logic::make_E(
      logic::make_or(logic::make_eventually(logic::atom("p")),
                     logic::make_always(logic::atom("q"))));
  EXPECT_THROW(static_cast<void>(checker.sat(not_ctl)), LogicError);
  // A free index variable is not checkable.
  EXPECT_THROW(static_cast<void>(checker.sat(logic::AG(logic::iatom("d", "i")))),
               LogicError);
  // An atom the registry does not know always throws.
  EXPECT_THROW(static_cast<void>(checker.sat(logic::atom("zz"))), LogicError);
}

TEST(SymbolicCtl, RegisteredPropWithoutFunctionReadsFalse) {
  // A proposition the registry knows but the system carries no function for
  // (e.g. registered after the build, or an index beyond this instance)
  // reads false in every state — the explicit engine's empty-column
  // semantics, even in strict mode.
  auto reg = kripke::make_registry();
  const SymbolicRing sym = build_symbolic_ring(4, nullptr, reg);
  reg->indexed("d", 9);
  CtlChecker checker(sym.system);
  EXPECT_EQ(checker.sat(logic::iatom_val("d", 9)), kBddFalse);
  const auto explicit_sys = testing::ring_of(4, reg);
  mc::CtlChecker explicit_checker(explicit_sys.structure());
  EXPECT_TRUE(explicit_checker.sat(logic::iatom_val("d", 9)).none());
}

TEST(SymbolicCtl, MemoKeysOnNodeIdentity) {
  // Two structurally equal formulas are the same hash-consed node, so the
  // second sat() is a cache hit; and ids are stable across engines.
  const SymbolicRing sym = build_symbolic_ring(3);
  CtlChecker checker(sym.system);
  const auto f1 = logic::AG(logic::make_implies(logic::iatom_val("c", 1),
                                                logic::iatom_val("t", 1)));
  const auto f2 = logic::AG(logic::make_implies(logic::iatom_val("c", 1),
                                                logic::iatom_val("t", 1)));
  EXPECT_EQ(f1.get(), f2.get());
  EXPECT_EQ(f1->id(), f2->id());
  const Bdd first = checker.sat(f1);
  EXPECT_EQ(checker.sat(f2), first);
}

}  // namespace
}  // namespace ictl::symbolic
