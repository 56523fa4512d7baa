// Satisfying sets of literal leaves (atoms, concrete indexed atoms, one(P)),
// shared by the CTL and CTL* checkers.
#pragma once

#include "kripke/structure.hpp"
#include "logic/formula.hpp"
#include "support/bitset.hpp"

namespace ictl::mc {

/// The states of `m` satisfying the leaf formula `f`, as resolved by
/// kripke::resolve_leaf (which throws LogicError for an unknown atom, an
/// unbound index, or a non-leaf): an atom or theta leaf is a copy of the
/// proposition's label column, one(P) without a theta a word-parallel
/// exactly-one over the member columns.
[[nodiscard]] support::DynamicBitset leaf_sat_set(const kripke::Structure& m,
                                                  const logic::FormulaPtr& f);

}  // namespace ictl::mc
