#include "core/verify.hpp"

#include "logic/printer.hpp"
#include "mc/indexed_checker.hpp"
#include "support/error.hpp"

namespace ictl::core {

VerifyForAllResult verify_for_all(const ParameterizedFamily& family,
                                  const logic::FormulaPtr& formula,
                                  std::uint32_t base_size,
                                  std::span<const std::uint32_t> sizes) {
  support::require<VerificationError>(formula != nullptr,
                                      "verify_for_all: null formula");
  support::require<VerificationError>(
      base_size >= family.min_size() && base_size <= family.max_explicit_size(),
      "verify_for_all: base size outside the family's explicit range");

  VerifyForAllResult result;
  result.formula_text = logic::to_string(formula);
  result.base_size = base_size;
  result.restrictions = logic::check_ictl_restrictions(formula);

  const kripke::Structure base = family.instance(base_size);
  result.holds_at_base = mc::holds(base, formula);

  for (const std::uint32_t r : sizes) {
    SizeOutcome outcome;
    outcome.size = r;
    outcome.certificate.family = family.name();
    outcome.certificate.base_size = base_size;
    outcome.certificate.target_size = r;

    if (r == base_size) {
      // Degenerate transfer: the identity certificate.
      outcome.certificate.method = FamilyCertificate::Method::kExplicit;
      outcome.certificate.theorem5.valid = true;
      outcome.certificate.theorem5.notes.push_back("identity (same size)");
    } else if (auto analytic = family.analytic_certificate(base_size, r)) {
      outcome.certificate.method = FamilyCertificate::Method::kAnalytic;
      outcome.certificate.theorem5 = std::move(*analytic);
    }

    if (outcome.certificate.method == FamilyCertificate::Method::kNone) {
      if (r <= family.max_explicit_size() && r >= family.min_size()) {
        const kripke::Structure target = family.instance(r);
        outcome.certificate.method = FamilyCertificate::Method::kExplicit;
        outcome.certificate.theorem5 = bisim::certify_theorem5(
            base, target, family.index_relation(base_size, r));
      } else {
        outcome.note =
            "size exceeds the explicit construction limit and the family "
            "provides no analytic certificate";
        result.outcomes.push_back(std::move(outcome));
        continue;
      }
    }

    std::string why;
    outcome.transfers = outcome.certificate.theorem5.transfers(formula, &why);
    if (outcome.transfers) {
      outcome.verdict = result.holds_at_base;
    } else {
      outcome.note = why;
    }
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace ictl::core
