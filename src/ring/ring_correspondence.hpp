// Correspondence between rings of different sizes (paper Section 5 and
// Appendix) — including the reproduction's headline finding.
//
// The paper claims M_2 and M_r correspond via the relation
//   (s, s') in E_{i,i'}  iff  part(s, i) = part(s', i') and
//                             (i in C  =>  (D = {} <=> D' = {}))
// with degree rank(s,i) + rank(s',i').  Reproducing this mechanically shows
// the claim is off by one:
//   * M_2 is NOT equivalent to M_r (r >= 3): the closed restricted ICTL*
//     formula distinguishing_formula() below is false in M_2 and true in
//     every larger ring, because in a two-process ring a process that enters
//     its critical section never has waiters and can always keep the token
//     (rule 4), while for r >= 3 it can enter critical with waiters and be
//     forced to hand the token on.  The Appendix proof's case (2b.b)
//     silently assumes the receiver's D becomes empty.
//   * The family stabilizes one size later: M_3|i and M_r|i' correspond for
//     all r >= 3, which the generic Section 3 decision procedure certifies.
//   * Even between corresponding sizes the paper's E_{i,i'} as written is
//     not a valid correspondence relation (the clause checker exhibits
//     violations); the coarsest valid relation computed by
//     find_correspondence is strictly finer.
// The paper's end-to-end story survives with base case 3: the Section 5
// properties hold at every size, and a 1000-process ring satisfies exactly
// the closed restricted ICTL* formulas of the 3-process ring (24 states).
#pragma once

#include <memory>
#include <vector>

#include "bisim/correspondence.hpp"
#include "bisim/indexed_correspondence.hpp"
#include "ring/rank.hpp"
#include "ring/ring.hpp"

namespace ictl::ring {

/// IN relation between I_{r0} and I_r (r0 <= r): indices below r0 pair with
/// themselves; the tail of I_r folds onto r0.  ring_index_relation(2, r) is
/// the paper's IN = {(1,1)} u {(2,i')}.
[[nodiscard]] std::vector<bisim::IndexPair> ring_index_relation(std::uint32_t r0,
                                                                std::uint32_t r);

/// The corrected base case: the smallest ring equivalent to all larger ones.
constexpr std::uint32_t kRingBaseSize = 3;

/// The discrepancy witness: a closed formula of the *restricted* logic,
///   \/i EF(d_i & !E[d_i U (c_i & E[c_i U (n_i & t_i)])]),
/// i.e. "some process can be delayed in a situation where receiving the
/// token cannot lead to it keeping the token afterwards".  False in M_2,
/// true in M_r for r >= 3.
[[nodiscard]] logic::FormulaPtr distinguishing_formula();

/// The paper's Section 5 relation E_{i,i'}, built literally (same part +
/// critical/D-emptiness side condition, rank-sum degrees) over the index
/// reductions.  Kept as a faithful reproduction artifact: validate() on it
/// FAILS (see header comment); the tests assert the precise violations.
class ExplicitRingCorrespondence {
 public:
  ExplicitRingCorrespondence(const RingSystem& a, std::uint32_t i, const RingSystem& b,
                             std::uint32_t i2);

  [[nodiscard]] const bisim::CorrespondenceRelation& relation() const { return *rel_; }
  [[nodiscard]] const kripke::Structure& reduced1() const { return *r1_; }
  [[nodiscard]] const kripke::Structure& reduced2() const { return *r2_; }

 private:
  std::unique_ptr<kripke::Structure> r1_;
  std::unique_ptr<kripke::Structure> r2_;
  std::unique_ptr<bisim::CorrespondenceRelation> rel_;
};

/// Mechanically certified Theorem 5 evidence between two explicit rings:
/// bisim::certify_theorem5 over ring_index_relation(base, target), which runs
/// the generic Section 3 decision procedure on every IN pair; each failing
/// pair's note names both rings.  Succeeds iff min(size) >= 3 or the sizes
/// are equal.
[[nodiscard]] bisim::Theorem5Certificate explicit_ring_certificate(
    const RingSystem& base, const RingSystem& target);

/// Theorem 5 certificate for M_3 ~ M_r for ANY r >= 3, without constructing
/// M_r.  Basis: the generic decision procedure certifies every IN pair of
/// M_3 ~ M_r explicitly for all r up to the validation threshold (tests and
/// bench_ring_certificate) and the symbolic prover discharges the Section 5
/// invariants for every size; beyond the threshold the certificate
/// extrapolates, exactly as the paper's Appendix argument does.  Initial
/// degrees are 0: the all-neutral initial states match exactly.
[[nodiscard]] bisim::Theorem5Certificate analytic_ring_certificate(std::uint32_t r);

}  // namespace ictl::ring
