#include "core/verify.hpp"

#include <gtest/gtest.h>

#include "logic/parser.hpp"
#include "mc/indexed_checker.hpp"
#include "network/counting_family.hpp"
#include "ring/ring.hpp"
#include "ring/ring_correspondence.hpp"

namespace ictl::core {
namespace {

TEST(VerifyForAll, RingPropertiesTransferToAThousandProcesses) {
  RingMutexFamily family;
  const std::vector<std::uint32_t> sizes = {4, 5, 6, 1000};
  for (const auto& [name, f] : ring::section5_specifications()) {
    const auto result = verify_for_all(family, f, 3, sizes);
    EXPECT_TRUE(result.holds_at_base) << name;
    EXPECT_TRUE(result.restrictions.ok()) << name;
    EXPECT_TRUE(result.all_transferred()) << name;
    for (const auto& outcome : result.outcomes) {
      EXPECT_TRUE(outcome.transfers) << name << " at " << outcome.size;
      EXPECT_TRUE(outcome.verdict) << name << " at " << outcome.size;
    }
  }
}

TEST(VerifyForAll, AnalyticCertificatesAreUsedForLargeSizes) {
  RingMutexFamily family;
  const std::vector<std::uint32_t> sizes = {1000};
  const auto result =
      verify_for_all(family, ring::invariant_one_token(), 3, sizes);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].certificate.method,
            FamilyCertificate::Method::kAnalytic);
  EXPECT_TRUE(result.outcomes[0].transfers);
}

TEST(VerifyForAll, ExplicitFallbackWhenAnalyticDisabled) {
  // The ring's analytic certificates start at base 3; from base 4 none
  // exists, so the target is certified by the explicit Section 3 procedure.
  RingMutexFamily family;
  ASSERT_FALSE(family.analytic_certificate(4, 5).has_value());
  const std::vector<std::uint32_t> sizes = {5};
  const auto result = verify_for_all(family, ring::invariant_one_token(), 4, sizes);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].certificate.method,
            FamilyCertificate::Method::kExplicit);
  EXPECT_TRUE(result.outcomes[0].transfers);
}

TEST(VerifyForAll, SameSizeIsDegenerateTransfer) {
  RingMutexFamily family;
  const std::vector<std::uint32_t> sizes = {3};
  const auto result =
      verify_for_all(family, ring::property_request_granted(), 3, sizes);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.outcomes[0].transfers);
}

TEST(VerifyForAll, UnrestrictedFormulaDoesNotTransfer) {
  RingMutexFamily family;
  const auto f = logic::parse_formula("EF (exists i. c[i])");  // quantifier under F
  const std::vector<std::uint32_t> sizes = {4};
  const auto result = verify_for_all(family, f, 3, sizes);
  EXPECT_TRUE(result.holds_at_base);
  EXPECT_FALSE(result.restrictions.ok());
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_FALSE(result.outcomes[0].transfers);
  EXPECT_FALSE(result.outcomes[0].note.empty());
}

TEST(VerifyForAll, BaseTwoCannotCertifyLargerRings) {
  // The reproduction finding surfaces in the API: from base 2 no certificate
  // can be established for size >= 3.
  RingMutexFamily family;
  const std::vector<std::uint32_t> sizes = {3};
  const auto result =
      verify_for_all(family, ring::invariant_one_token(), 2, sizes);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_FALSE(result.outcomes[0].transfers);
}

TEST(VerifyForAll, SizesBeyondExplicitLimitWithoutAnalyticAreReported) {
  CountingFamily family;
  const std::vector<std::uint32_t> sizes = {30};  // 2^30 states: impossible
  const auto result = verify_for_all(
      family, logic::parse_formula("forall i. AG (b[i] -> AG b[i])"), 2, sizes);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_FALSE(result.outcomes[0].transfers);
  EXPECT_NE(result.outcomes[0].note.find("explicit construction limit"),
            std::string::npos);
}

TEST(VerifyForAll, CountingFamilyTransfersRestrictedFormulas) {
  // Free products of identical once-flipping processes correspond from two
  // copies on (the singleton network has no idle transitions at all, so it
  // is NOT equivalent to the larger ones — same flavor as the ring's base
  // case finding); restricted formulas transfer across sizes >= 2.
  CountingFamily family;
  const auto f = logic::parse_formula("forall i. AG (b[i] -> AG b[i])");
  const std::vector<std::uint32_t> sizes = {3, 4, 5};
  const auto result = verify_for_all(family, f, 2, sizes);
  EXPECT_TRUE(result.holds_at_base);
  EXPECT_TRUE(result.all_transferred());
}

TEST(VerifyForAll, SingletonCountingNetworkDoesNotCorrespond) {
  // The n = 1 network has no stuttering (no other process can move), so
  // E G a[i] distinguishes it from every larger network.
  CountingFamily family;
  const auto f = logic::parse_formula("forall i. AG (b[i] -> AG b[i])");
  const std::vector<std::uint32_t> sizes = {2};
  const auto result = verify_for_all(family, f, 1, sizes);
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_FALSE(result.outcomes[0].transfers);
  // The witness: some process can stay unflipped forever iff n >= 2.
  const auto witness = logic::parse_formula("exists i. E G a[i]");
  EXPECT_FALSE(mc::holds(family.instance(1), witness));
  EXPECT_TRUE(mc::holds(family.instance(2), witness));
}

TEST(VerifyForAll, CountingFormulaIsCorrectlyRefused) {
  // ...but the Fig. 4.1 counting formula is NOT restricted, and indeed its
  // verdict differs across sizes — the certificate must refuse it.
  CountingFamily family;
  const auto f = network::at_least_k_processes(2);
  const std::vector<std::uint32_t> sizes = {3};
  const auto result = verify_for_all(family, f, 1, sizes);
  EXPECT_FALSE(result.holds_at_base);  // one process cannot flip twice
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_FALSE(result.outcomes[0].transfers);
  // And the real verdict at size 3 differs from base, proving the refusal
  // is necessary, not conservative.
  EXPECT_TRUE(mc::holds(family.instance(3), f));
}

TEST(VerifyForAll, ValidatesInputs) {
  RingMutexFamily family;
  const std::vector<std::uint32_t> sizes = {4};
  EXPECT_THROW(static_cast<void>(verify_for_all(family, nullptr, 3, sizes)),
               VerificationError);
  EXPECT_THROW(static_cast<void>(verify_for_all(
                   family, ring::invariant_one_token(), 1, sizes)),
               VerificationError);
}

}  // namespace
}  // namespace ictl::core
