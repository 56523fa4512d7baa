#include "core/family.hpp"

#include <gtest/gtest.h>

#include "core/certificate.hpp"
#include "ring/ring.hpp"
#include "ring/ring_correspondence.hpp"
#include "symbolic/transition_system.hpp"

namespace ictl::core {
namespace {

TEST(RingMutexFamily, InstancesShareARegistry) {
  RingMutexFamily family;
  const auto m2 = family.instance(2);
  const auto m3 = family.instance(3);
  EXPECT_EQ(m2.registry().get(), m3.registry().get());
  EXPECT_EQ(m2.num_states(), 8u);
  EXPECT_EQ(m3.num_states(), 24u);
}

TEST(RingMutexFamily, MetadataMatchesTheRing) {
  RingMutexFamily family;
  EXPECT_EQ(family.name(), "token-ring-mutex");
  EXPECT_EQ(family.min_size(), 2u);
  EXPECT_GE(family.max_explicit_size(), 16u);
}

TEST(RingMutexFamily, SymbolicInstancePassesTheExplicitWall) {
  RingMutexFamily family;
  EXPECT_EQ(family.max_symbolic_size(), 256u);
  const auto sym = family.symbolic_instance(32);
  ASSERT_NE(sym, nullptr);
  EXPECT_EQ(sym->num_states(), symbolic::SatCount::make(32, 32));  // 32 * 2^32
  // Built over the family registry: the explicit instances' PropIds name
  // the symbolic instance's label functions.
  const auto m3 = family.instance(3);
  EXPECT_EQ(sym->registry().get(), m3.registry().get());
  for (const kripke::PropId p : m3.used_props())
    EXPECT_TRUE(sym->prop_states(p).has_value()) << m3.registry()->display(p);
  const auto c32 = m3.registry()->find_indexed("c", 32);
  ASSERT_TRUE(c32.has_value());
  EXPECT_TRUE(sym->prop_states(*c32).has_value());
}

TEST(ParameterizedFamily, FamiliesWithoutEncodingHaveNoSymbolicInstance) {
  StarMutexFamily star;
  CountingFamily counting;
  EXPECT_EQ(star.max_symbolic_size(), 0u);
  EXPECT_EQ(star.symbolic_instance(3), nullptr);
  EXPECT_EQ(counting.max_symbolic_size(), 0u);
  EXPECT_EQ(counting.symbolic_instance(3), nullptr);
}

TEST(RingMutexFamily, IndexRelationIsTheRingRelation) {
  RingMutexFamily family;
  const auto in = family.index_relation(3, 6);
  const auto expected = ring::ring_index_relation(3, 6);
  ASSERT_EQ(in.size(), expected.size());
  for (std::size_t k = 0; k < in.size(); ++k) {
    EXPECT_EQ(in[k].i, expected[k].i);
    EXPECT_EQ(in[k].i2, expected[k].i2);
  }
}

TEST(RingMutexFamily, AnalyticCertificateOnlyFromBaseThree) {
  RingMutexFamily family;
  EXPECT_TRUE(family.analytic_certificate(3, 100).has_value());
  EXPECT_TRUE(family.analytic_certificate(3, 1000).has_value());
  EXPECT_FALSE(family.analytic_certificate(2, 100).has_value());
  EXPECT_FALSE(family.analytic_certificate(4, 100).has_value());
}

TEST(CountingFamily, InstancesAreFreeProducts) {
  CountingFamily family;
  EXPECT_EQ(family.instance(1).num_states(), 2u);
  EXPECT_EQ(family.instance(3).num_states(), 8u);
  EXPECT_EQ(family.min_size(), 1u);
}

TEST(CountingFamily, IndexRelationIsTotal) {
  CountingFamily family;
  const auto in = family.index_relation(2, 5);
  std::vector<bool> left(3, false), right(6, false);
  for (const auto& p : in) {
    ASSERT_GE(p.i, 1u);
    ASSERT_LE(p.i, 2u);
    left[p.i] = true;
    right[p.i2] = true;
  }
  for (std::uint32_t i = 1; i <= 2; ++i) EXPECT_TRUE(left[i]);
  for (std::uint32_t i = 1; i <= 5; ++i) EXPECT_TRUE(right[i]);
}

TEST(CountingFamily, RejectsInvertedSizes) {
  CountingFamily family;
  EXPECT_THROW(static_cast<void>(family.index_relation(5, 2)), VerificationError);
}

TEST(Certificate, MethodNames) {
  EXPECT_EQ(to_string(FamilyCertificate::Method::kExplicit), "explicit");
  EXPECT_EQ(to_string(FamilyCertificate::Method::kAnalytic), "analytic");
  EXPECT_EQ(to_string(FamilyCertificate::Method::kNone), "none");
  FamilyCertificate cert;
  EXPECT_FALSE(cert.valid());
}

}  // namespace
}  // namespace ictl::core
