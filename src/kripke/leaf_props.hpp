// What a literal leaf of a formula means over a proposition registry — the
// paper's Section 4 reading, decided once for every engine.  A leaf is
//   * true / false,
//   * a plain atom A; when no plain proposition of that name exists, the
//     index-erased A[.] of a reduction M|i, so "the process's A" is written
//     simply `A` over reduced structures,
//   * a concrete indexed atom A_c (the index must be bound),
//   * one(P), "exactly one index c has P_c": the materialized theta
//     proposition when the registry has one, else the member list P_c.
// The engines keep only their set algebra over the resolved propositions: a
// column copy and a word-parallel exactly-one (mc::leaf_sat_set), or
// reach & fn and a none/one BDD scan (symbolic::SymbolicStateOps::leaf).
#pragma once

#include <cstdint>
#include <vector>

#include "kripke/prop_registry.hpp"
#include "logic/formula.hpp"

namespace ictl::kripke {

struct LeafProps {
  enum class Kind : std::uint8_t {
    kAll,         ///< true: every state
    kNone,        ///< false: no state
    kOne,         ///< the states labelled `prop` (an atom or a theta)
    kExactlyOne,  ///< the states labelled by exactly one of `members`
  };
  Kind kind = Kind::kNone;
  PropId prop = 0;              ///< meaningful only for kOne
  std::vector<PropId> members;  ///< meaningful only for kExactlyOne
};

/// Resolves the literal leaf `f` against `registry`.  A name that is
/// registered but labels no state resolves normally (its state set is
/// empty).  Throws LogicError for a null or non-leaf formula, an indexed
/// atom with an unbound index variable, and an atom the registry does not
/// know.
[[nodiscard]] LeafProps resolve_leaf(const PropRegistry& registry,
                                     const logic::FormulaPtr& f);

}  // namespace ictl::kripke
