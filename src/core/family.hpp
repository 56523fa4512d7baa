// Size-parameterized families of networks of identical processes, the
// objects the paper's method quantifies over: verify a small instance, prove
// a correspondence, conclude the property for every size.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bisim/indexed_correspondence.hpp"
#include "kripke/structure.hpp"

namespace ictl::core {

class ParameterizedFamily {
 public:
  virtual ~ParameterizedFamily() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Smallest meaningful instance (2 for the ring: the paper notes the
  /// one-process ring corresponds to nothing, since no process can ever be
  /// delayed there).
  [[nodiscard]] virtual std::uint32_t min_size() const = 0;

  /// Largest size instance() will build explicitly.
  [[nodiscard]] virtual std::uint32_t max_explicit_size() const = 0;

  /// The network of size r, over the family's shared registry so labels of
  /// different instances are comparable.
  [[nodiscard]] virtual kripke::Structure instance(std::uint32_t r) const = 0;

  /// The IN relation between the index sets of instance(r0) and
  /// instance(r); must be total for both (Theorem 5's premise).
  [[nodiscard]] virtual std::vector<bisim::IndexPair> index_relation(
      std::uint32_t r0, std::uint32_t r) const = 0;

  /// A Theorem 5 certificate derived analytically (no explicit construction
  /// of instance(r)); nullopt when the family only supports the generic
  /// explicit procedure.
  [[nodiscard]] virtual std::optional<bisim::Theorem5Certificate>
  analytic_certificate(std::uint32_t r0, std::uint32_t r) const {
    static_cast<void>(r0);
    static_cast<void>(r);
    return std::nullopt;
  }
};

/// The Section 5 token-ring mutual exclusion family.
class RingMutexFamily final : public ParameterizedFamily {
 public:
  RingMutexFamily();
  [[nodiscard]] std::string name() const override { return "token-ring-mutex"; }
  [[nodiscard]] std::uint32_t min_size() const override { return 2; }
  /// ring::RingSystem::kMaxExplicitSize, surfaced here so callers need not
  /// learn the cap from a thrown error string.
  [[nodiscard]] std::uint32_t max_explicit_size() const override;
  [[nodiscard]] kripke::Structure instance(std::uint32_t r) const override;
  [[nodiscard]] std::vector<bisim::IndexPair> index_relation(
      std::uint32_t r0, std::uint32_t r) const override;
  [[nodiscard]] std::optional<bisim::Theorem5Certificate> analytic_certificate(
      std::uint32_t r0, std::uint32_t r) const override;

 private:
  kripke::PropRegistryPtr registry_;
};

/// The client-server star family (network/star.hpp): n identical clients,
/// a serving slot granted nondeterministically.  Stabilizes at base 2.
class StarMutexFamily final : public ParameterizedFamily {
 public:
  StarMutexFamily();
  [[nodiscard]] std::string name() const override { return "client-server-star"; }
  [[nodiscard]] std::uint32_t min_size() const override { return 1; }
  [[nodiscard]] std::uint32_t max_explicit_size() const override { return 20; }
  [[nodiscard]] kripke::Structure instance(std::uint32_t r) const override;
  [[nodiscard]] std::vector<bisim::IndexPair> index_relation(
      std::uint32_t r0, std::uint32_t r) const override;

 private:
  kripke::PropRegistryPtr registry_;
};

/// The Fig. 4.1 family of once-flipping processes (free product).
class CountingFamily final : public ParameterizedFamily {
 public:
  CountingFamily();
  [[nodiscard]] std::string name() const override { return "fig41-counting"; }
  [[nodiscard]] std::uint32_t min_size() const override { return 1; }
  [[nodiscard]] std::uint32_t max_explicit_size() const override { return 16; }
  [[nodiscard]] kripke::Structure instance(std::uint32_t r) const override;
  [[nodiscard]] std::vector<bisim::IndexPair> index_relation(
      std::uint32_t r0, std::uint32_t r) const override;

 private:
  kripke::PropRegistryPtr registry_;
};

}  // namespace ictl::core
