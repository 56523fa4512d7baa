#include "mc/indexed_checker.hpp"

namespace ictl::mc {

IndexedCheckResult check_indexed(const kripke::Structure& m,
                                 const logic::FormulaPtr& f) {
  IndexedCheckResult result;
  result.restrictions = logic::check_ictl_restrictions(f);
  Checker checker(m);
  const SatSet& sat = checker.sat(f);
  result.holds = sat.test(m.initial());
  result.satisfying_states = sat.count();
  return result;
}

bool holds(const kripke::Structure& m, const logic::FormulaPtr& f) {
  return Checker(m).holds_initially(f);
}

}  // namespace ictl::mc
