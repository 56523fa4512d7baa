// The paper's verification method, end to end: model check a closed
// restricted ICTL* formula on a small instance, certify the indexed
// correspondence to each larger size (Theorem 5), and transfer the verdict.
// "We can use the temporal logic model checking algorithm to verify
// automatically that the formula holds in the network of size two and
// conclude that it also holds in the network of size 1000."
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/certificate.hpp"
#include "core/family.hpp"
#include "logic/classify.hpp"
#include "logic/formula.hpp"

namespace ictl::core {

struct SizeOutcome {
  std::uint32_t size = 0;
  FamilyCertificate certificate;
  /// Certificate valid AND formula inside the restricted logic.
  bool transfers = false;
  /// The transferred verdict (meaningful only when `transfers`).
  bool verdict = false;
  std::string note;
};

struct VerifyForAllResult {
  std::string formula_text;
  std::uint32_t base_size = 0;
  bool holds_at_base = false;
  logic::RestrictionReport restrictions;
  std::vector<SizeOutcome> outcomes;

  /// True when every requested size received a transferred verdict.
  [[nodiscard]] bool all_transferred() const {
    for (const auto& o : outcomes)
      if (!o.transfers) return false;
    return true;
  }
};

/// Runs the full method for `formula` over `family`: check at `base_size`,
/// then certify and transfer to each entry of `sizes`.  A size takes the
/// family's analytic certificate when it has one, else the explicit
/// Section 3 procedure within the family's explicit range.
[[nodiscard]] VerifyForAllResult verify_for_all(const ParameterizedFamily& family,
                                                const logic::FormulaPtr& formula,
                                                std::uint32_t base_size,
                                                std::span<const std::uint32_t> sizes);

}  // namespace ictl::core
