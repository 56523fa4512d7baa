// The correspondence between ring sizes — including the reproduction's
// headline finding (the paper's base case 2 fails; base case 3 works).
#include "ring/ring_correspondence.hpp"

#include <gtest/gtest.h>

#include "logic/classify.hpp"
#include "mc/indexed_checker.hpp"

#include "../helpers.hpp"

namespace ictl::ring {
namespace {

TEST(RingIndexRelation, MatchesThePaperShape) {
  const auto in = ring_index_relation(2, 5);
  // {(1,1)} u {(2, i') | i' in 2..5}
  ASSERT_EQ(in.size(), 5u);
  EXPECT_EQ(in[0].i, 1u);
  EXPECT_EQ(in[0].i2, 1u);
  for (std::size_t k = 1; k < in.size(); ++k) {
    EXPECT_EQ(in[k].i, 2u);
    EXPECT_EQ(in[k].i2, static_cast<std::uint32_t>(k + 1));
  }
}

TEST(RingIndexRelation, TotalForBothSides) {
  for (std::uint32_t r0 : {2u, 3u}) {
    for (std::uint32_t r = r0; r <= 6; ++r) {
      const auto in = ring_index_relation(r0, r);
      std::vector<bool> left(r0 + 1, false), right(r + 1, false);
      for (const auto& p : in) {
        left[p.i] = true;
        right[p.i2] = true;
      }
      for (std::uint32_t i = 1; i <= r0; ++i) EXPECT_TRUE(left[i]);
      for (std::uint32_t i = 1; i <= r; ++i) EXPECT_TRUE(right[i]);
    }
  }
}

TEST(Finding, DistinguishingFormulaIsClosedAndRestricted) {
  const auto psi = distinguishing_formula();
  EXPECT_TRUE(logic::is_closed(psi));
  EXPECT_TRUE(logic::is_restricted_ictl(psi));
}

TEST(Finding, DistinguishingFormulaSeparatesTwoFromLarger) {
  auto reg = kripke::make_registry();
  const auto psi = distinguishing_formula();
  EXPECT_FALSE(mc::holds(testing::ring_of(2, reg).structure(), psi));
  for (std::uint32_t r = 3; r <= 6; ++r)
    EXPECT_TRUE(mc::holds(testing::ring_of(r, reg).structure(), psi)) << r;
}

TEST(Finding, PaperRelationFailsTheClauseChecker) {
  // The Section 5 relation E_{i,i'} as literally defined is not a valid
  // correspondence relation — even between sizes that DO correspond.
  auto reg = kripke::make_registry();
  const auto m3 = testing::ring_of(3, reg);
  const auto m4 = testing::ring_of(4, reg);
  const ExplicitRingCorrespondence corr(m3, 2, m4, 2);
  EXPECT_FALSE(corr.relation().validate(1).empty());
  // And between 2 and 3 (the paper's own setting) it also fails.
  const auto m2 = testing::ring_of(2, reg);
  const ExplicitRingCorrespondence corr23(m2, 2, m3, 2);
  EXPECT_FALSE(corr23.relation().validate(1).empty());
}

TEST(Finding, PaperRelationHasTheRightShapeOtherwise) {
  // Label agreement (clause 2a) always holds for the part-based pairing —
  // the failure is purely in the matching clauses 2b/2c.
  auto reg = kripke::make_registry();
  const auto m2 = testing::ring_of(2, reg);
  const auto m3 = testing::ring_of(3, reg);
  const ExplicitRingCorrespondence corr(m2, 2, m3, 3);
  for (const auto& v : corr.relation().validate(256))
    EXPECT_EQ(v.reason.find("2a"), std::string::npos) << v.reason;
}

TEST(ExplicitCertificate, BaseThreeIsCertifiedUpToSeven) {
  auto reg = kripke::make_registry();
  const auto m3 = testing::ring_of(3, reg);
  for (std::uint32_t r = 3; r <= 7; ++r) {
    const auto mr = testing::ring_of(r, reg);
    const auto cert = explicit_ring_certificate(m3, mr);
    EXPECT_TRUE(cert.valid) << "r=" << r
                            << (cert.notes.empty() ? "" : " " + cert.notes.front());
    for (const auto d : cert.initial_degrees) EXPECT_EQ(d, 0u);
  }
}

TEST(ExplicitCertificate, BaseTwoFails) {
  auto reg = kripke::make_registry();
  const auto m2 = testing::ring_of(2, reg);
  const auto m4 = testing::ring_of(4, reg);
  const auto cert = explicit_ring_certificate(m2, m4);
  EXPECT_FALSE(cert.valid);
  // Every failing IN pair's note names both rings.
  ASSERT_FALSE(cert.notes.empty());
  for (const auto& note : cert.notes)
    EXPECT_NE(note.find("-correspondence exists between M_2 and M_4"), std::string::npos)
        << note;
}

TEST(AnalyticCertificate, MatchesExplicitForSmallSizes) {
  auto reg = kripke::make_registry();
  const auto m3 = testing::ring_of(3, reg);
  for (std::uint32_t r = 3; r <= 6; ++r) {
    const auto analytic = analytic_ring_certificate(r);
    const auto explicit_cert =
        explicit_ring_certificate(m3, testing::ring_of(r, reg));
    EXPECT_TRUE(analytic.valid);
    ASSERT_TRUE(explicit_cert.valid);
    ASSERT_EQ(analytic.in_relation.size(), explicit_cert.in_relation.size());
    for (std::size_t k = 0; k < analytic.in_relation.size(); ++k) {
      EXPECT_EQ(analytic.in_relation[k].i, explicit_cert.in_relation[k].i);
      EXPECT_EQ(analytic.in_relation[k].i2, explicit_cert.in_relation[k].i2);
      EXPECT_EQ(analytic.initial_degrees[k], explicit_cert.initial_degrees[k]);
    }
  }
}

TEST(AnalyticCertificate, WorksForAThousandProcesses) {
  const auto cert = analytic_ring_certificate(1000);
  EXPECT_TRUE(cert.valid);
  EXPECT_EQ(cert.in_relation.size(), 1000u);
  std::string why;
  EXPECT_TRUE(cert.transfers(property_eventually_critical(), &why)) << why;
  EXPECT_TRUE(cert.transfers(distinguishing_formula(), &why)) << why;
}

TEST(AnalyticCertificate, RefusesBaseTwo) {
  EXPECT_THROW(static_cast<void>(analytic_ring_certificate(2)), ModelError);
}

TEST(Transfer, VerdictsAgreeBetweenCorrespondingSizes) {
  // Empirical Theorem 5: every Section 5 spec plus the distinguishing
  // formula evaluates identically on M_3..M_6.
  const auto systems = testing::ring_family({3, 4, 5, 6});
  auto specs = section5_specifications();
  specs.emplace_back("distinguishing formula", distinguishing_formula());
  for (const auto& [name, f] : specs) {
    const bool base = mc::holds(systems.front().structure(), f);
    for (const auto& sys : systems)
      EXPECT_EQ(mc::holds(sys.structure(), f), base)
          << name << " differs at r=" << sys.size();
  }
}

}  // namespace
}  // namespace ictl::ring
