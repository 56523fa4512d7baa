#include "core/family.hpp"

#include "network/counting_family.hpp"
#include "network/star.hpp"
#include "ring/ring.hpp"
#include "ring/ring_correspondence.hpp"
#include "support/error.hpp"

namespace ictl::core {

RingMutexFamily::RingMutexFamily() : registry_(kripke::make_registry()) {}

std::uint32_t RingMutexFamily::max_explicit_size() const {
  return ring::RingSystem::kMaxExplicitSize;
}

kripke::Structure RingMutexFamily::instance(std::uint32_t r) const {
  return ring::RingSystem::build(r, registry_).structure();
}

std::vector<bisim::IndexPair> RingMutexFamily::index_relation(std::uint32_t r0,
                                                              std::uint32_t r) const {
  return ring::ring_index_relation(r0, r);
}

std::optional<bisim::Theorem5Certificate> RingMutexFamily::analytic_certificate(
    std::uint32_t r0, std::uint32_t r) const {
  // The corrected base case (see ring_correspondence.hpp): analytic
  // certificates exist from the three-process ring on.
  if (r0 != ring::kRingBaseSize || r < ring::kRingBaseSize) return std::nullopt;
  return ring::analytic_ring_certificate(r);
}

StarMutexFamily::StarMutexFamily() : registry_(kripke::make_registry()) {}

kripke::Structure StarMutexFamily::instance(std::uint32_t r) const {
  return network::star_mutex(r, registry_);
}

std::vector<bisim::IndexPair> StarMutexFamily::index_relation(std::uint32_t r0,
                                                              std::uint32_t r) const {
  support::require<VerificationError>(r0 <= r,
                                      "StarMutexFamily: base size must not exceed "
                                      "target size");
  // Clients are fully symmetric: pair low indices with themselves, fold the
  // tail onto the base's last index.
  std::vector<bisim::IndexPair> in;
  for (std::uint32_t i = 1; i <= r; ++i) in.push_back({std::min(i, r0), i});
  return in;
}

CountingFamily::CountingFamily() : registry_(kripke::make_registry()) {}

kripke::Structure CountingFamily::instance(std::uint32_t r) const {
  return network::counting_network(r, registry_);
}

std::vector<bisim::IndexPair> CountingFamily::index_relation(std::uint32_t r0,
                                                             std::uint32_t r) const {
  support::require<VerificationError>(r0 <= r,
                                      "CountingFamily: base size must not exceed "
                                      "target size");
  // Identical unsynchronized processes: pair index i with itself below the
  // base size and fold the tail onto the last base index.  Total for both.
  std::vector<bisim::IndexPair> in;
  for (std::uint32_t i = 1; i <= r; ++i) in.push_back({std::min(i, r0), i});
  return in;
}

}  // namespace ictl::core
