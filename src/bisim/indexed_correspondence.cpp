#include "bisim/indexed_correspondence.hpp"

#include <map>

#include "logic/printer.hpp"
#include "support/error.hpp"

namespace ictl::bisim {

std::uint32_t IndexedFindResult::initial_degree() const {
  support::require<VerificationError>(relation.has_value(),
                                      "initial_degree: no correspondence found");
  const auto d = relation->min_degree(reduced1->initial(), reduced2->initial());
  ICTL_ASSERT(d.has_value());
  return *d;
}

IndexedFindResult find_indexed_correspondence(const kripke::Structure& m1,
                                              const kripke::Structure& m2,
                                              std::uint32_t i, std::uint32_t i2) {
  IndexedFindResult result;
  result.reduced1 =
      std::make_unique<kripke::Structure>(kripke::reduce_to_index(m1, i));
  result.reduced2 =
      std::make_unique<kripke::Structure>(kripke::reduce_to_index(m2, i2));
  FindResult found = find_correspondence(*result.reduced1, *result.reduced2);
  result.relation = std::move(found.relation);
  result.candidate_pairs = found.candidate_pairs;
  result.surviving_pairs = found.surviving_pairs;
  result.iterations = found.iterations;
  result.pair_evaluations = found.pair_evaluations;
  return result;
}

bool Theorem5Certificate::transfers(const logic::FormulaPtr& f, std::string* why) const {
  if (!valid) {
    if (why != nullptr) {
      *why = "certificate is invalid";
      for (const auto& note : notes) *why += "; " + note;
    }
    return false;
  }
  const logic::RestrictionReport report = logic::check_ictl_restrictions(f);
  if (!report.ok()) {
    if (why != nullptr) {
      *why = "formula is outside the restricted logic (Theorem 5 does not apply): ";
      for (std::size_t i = 0; i < report.violations.size(); ++i) {
        if (i > 0) *why += "; ";
        *why += report.violations[i];
      }
    }
    return false;
  }
  return true;
}

Theorem5Certificate certify_theorem5(const kripke::Structure& m1,
                                     const kripke::Structure& m2,
                                     const std::vector<IndexPair>& in) {
  Theorem5Certificate cert;
  cert.in_relation = in;
  cert.valid = true;

  // IN must be total for both index sets.
  std::map<std::uint32_t, bool> covered1, covered2;
  for (const std::uint32_t i : m1.index_set()) covered1[i] = false;
  for (const std::uint32_t i : m2.index_set()) covered2[i] = false;
  for (const IndexPair& p : in) {
    if (auto it = covered1.find(p.i); it != covered1.end())
      it->second = true;
    else {
      cert.valid = false;
      cert.notes.push_back("IN mentions index " + std::to_string(p.i) +
                           " absent from I");
    }
    if (auto it = covered2.find(p.i2); it != covered2.end())
      it->second = true;
    else {
      cert.valid = false;
      cert.notes.push_back("IN mentions index " + std::to_string(p.i2) +
                           " absent from I'");
    }
  }
  for (const auto& [i, hit] : covered1)
    if (!hit) {
      cert.valid = false;
      cert.notes.push_back("IN is not total: index " + std::to_string(i) +
                           " of I is unrelated");
    }
  for (const auto& [i, hit] : covered2)
    if (!hit) {
      cert.valid = false;
      cert.notes.push_back("IN is not total: index " + std::to_string(i) +
                           " of I' is unrelated");
    }

  // (i,i')-correspondence for every pair, with reductions cached per index.
  std::map<std::uint32_t, kripke::Structure> red1, red2;
  for (const IndexPair& p : in) {
    auto it1 = red1.find(p.i);
    if (it1 == red1.end())
      it1 = red1.emplace(p.i, kripke::reduce_to_index(m1, p.i)).first;
    auto it2 = red2.find(p.i2);
    if (it2 == red2.end())
      it2 = red2.emplace(p.i2, kripke::reduce_to_index(m2, p.i2)).first;
    FindResult found = find_correspondence(it1->second, it2->second);
    if (!found.relation.has_value()) {
      cert.valid = false;
      cert.notes.push_back("no (" + std::to_string(p.i) + "," + std::to_string(p.i2) +
                           ")-correspondence exists");
      cert.initial_degrees.push_back(kNoDegree);
      continue;
    }
    const auto d = found.relation->min_degree(it1->second.initial(),
                                              it2->second.initial());
    ICTL_ASSERT(d.has_value());
    cert.initial_degrees.push_back(*d);
  }
  return cert;
}

}  // namespace ictl::bisim
