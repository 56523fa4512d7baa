// Differential testing: generate random CTL formulas from a grammar and
// check that the labeling algorithm and the tableau-based CTL* checker agree
// on every state of every structure — the strongest cross-validation of the
// two independent model-checking implementations.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "logic/printer.hpp"
#include "mc/ctl_checker.hpp"
#include "mc/ctlstar_checker.hpp"

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

/// Random CTL state formula of bounded depth over atoms {p, q}.
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

class Differential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(Differential, LabelingAndTableauAgreeOnRandomFormulas) {
  const auto [structure_seed, formula_seed] = GetParam();
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 20, structure_seed);
  CtlChecker labeling(m);
  CheckerOptions tableau_only;
  tableau_only.use_ctl_fast_path = false;
  Checker tableau(m, tableau_only);

  Rng rng(formula_seed);
  for (int k = 0; k < 25; ++k) {
    const auto f = random_ctl(rng, 1 + rng.below(3));
    const SatSet& a = labeling.sat(f);
    const SatSet& b = tableau.sat(f);
    EXPECT_TRUE(a == b) << "structure seed " << structure_seed << ", formula "
                        << logic::to_string(f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Differential,
    ::testing::Combine(::testing::Values(1u, 7u, 19u),
                       ::testing::Values(11u, 29u, 53u, 97u)));

TEST(Differential, AgreementOnTheRingToo) {
  const auto sys = testing::ring_of(4);
  CtlChecker labeling(sys.structure());
  mc::CheckerOptions tableau_only;
  tableau_only.use_ctl_fast_path = false;
  Checker tableau(sys.structure(), tableau_only);
  Rng rng(5);
  // The ring labels no state with a plain p or q; registered, both read as
  // false everywhere in both checkers.
  auto reg = sys.structure().registry();
  static_cast<void>(reg->plain("p"));
  static_cast<void>(reg->plain("q"));
  for (int k = 0; k < 15; ++k) {
    auto f = random_ctl(rng, 2);
    EXPECT_TRUE(labeling.sat(f) == tableau.sat(f)) << logic::to_string(f);
  }
}

}  // namespace
}  // namespace ictl::mc
