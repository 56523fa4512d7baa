// Indexed correspondence (paper Section 4).
//
// For structures M, M' with index sets I, I', the reduction M|i keeps only
// the indexed propositions of index i (kripke::reduce_to_index).  M and M'
// (i,i')-correspond when M|i and M'|i' correspond in the Section 3 sense.
// Theorem 5: if IN ⊆ I x I' is total for both I and I' and M, M'
// (i,i')-correspond for every (i,i') in IN, then M and M' satisfy exactly
// the same closed formulas of (restricted) ICTL*.
//
// certify_theorem5 establishes the premises mechanically and returns a
// certificate carrying the per-pair minimal initial degrees; the certificate
// plus a restriction check on a formula is precisely what licenses
// transferring a model-checking verdict between network sizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bisim/correspondence.hpp"
#include "kripke/structure.hpp"
#include "logic/classify.hpp"
#include "logic/formula.hpp"

namespace ictl::bisim {

struct IndexPair {
  std::uint32_t i = 0;   ///< index value in M's index set I
  std::uint32_t i2 = 0;  ///< index value in M''s index set I'
};

/// Result of an (i,i')-correspondence decision.  Owns the index reductions
/// so the relation's internal references stay valid for the result's
/// lifetime (the relation points at `reduced1` / `reduced2`).
struct IndexedFindResult {
  std::unique_ptr<kripke::Structure> reduced1;
  std::unique_ptr<kripke::Structure> reduced2;
  std::optional<CorrespondenceRelation> relation;
  std::size_t candidate_pairs = 0;
  std::size_t surviving_pairs = 0;
  std::size_t iterations = 0;
  std::size_t pair_evaluations = 0;

  [[nodiscard]] bool corresponds() const { return relation.has_value(); }
  /// Minimal degree of the initial-state pair (only when corresponds()).
  [[nodiscard]] std::uint32_t initial_degree() const;
};

/// Decides (i,i')-correspondence of m1 and m2 by reducing both structures
/// and running the Section 3 decision procedure.
[[nodiscard]] IndexedFindResult find_indexed_correspondence(const kripke::Structure& m1,
                                                            const kripke::Structure& m2,
                                                            std::uint32_t i,
                                                            std::uint32_t i2);

/// Evidence that Theorem 5's premises hold for a pair of structures.
struct Theorem5Certificate {
  bool valid = false;
  std::vector<IndexPair> in_relation;
  /// Minimal degree of the initial-state pair in the reduction, per IN pair.
  std::vector<std::uint32_t> initial_degrees;
  /// Human-readable failure notes when invalid.
  std::vector<std::string> notes;

  /// True when the certificate licenses transferring the verdict of `f`
  /// between the two structures: the certificate is valid and `f` is a
  /// closed formula of the restricted logic.  When `why` is non-null it
  /// receives an explanation on failure.
  [[nodiscard]] bool transfers(const logic::FormulaPtr& f,
                               std::string* why = nullptr) const;
};

/// Checks IN-totality and (i,i')-correspondence for every pair of `in`.
[[nodiscard]] Theorem5Certificate certify_theorem5(const kripke::Structure& m1,
                                                   const kripke::Structure& m2,
                                                   const std::vector<IndexPair>& in);

}  // namespace ictl::bisim
