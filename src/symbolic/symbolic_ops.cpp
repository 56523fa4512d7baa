#include "symbolic/symbolic_ops.hpp"

#include <optional>
#include <utility>

#include "logic/printer.hpp"
#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "rt/failpoint.hpp"
#include "support/error.hpp"

namespace ictl::symbolic {

using logic::FormulaPtr;
using logic::Kind;
using Set = SymbolicStateOps::Set;

SymbolicStateOps::SymbolicStateOps(
    std::shared_ptr<const TransitionSystem> system, bool unknown_atoms_are_false)
    : system_(std::move(system)),
      unknown_atoms_are_false_(unknown_atoms_are_false) {
  support::require<ModelError>(system_ != nullptr, "SymbolicStateOps: null system");
  reach_ = BddRef(system_->manager(), system_->reachable());
}

Set SymbolicStateOps::top() const { return reach_; }

Set SymbolicStateOps::bottom() const {
  return BddRef(system_->manager(), kBddFalse);
}

Set SymbolicStateOps::complement(const Set& s) const {
  return system_->manager().bdd_diff(reach_, s);
}

Set SymbolicStateOps::conj(const Set& a, const Set& b) const {
  return system_->manager().bdd_and(a, b);
}

Set SymbolicStateOps::disj(const Set& a, const Set& b) const {
  return system_->manager().bdd_or(a, b);
}

Set SymbolicStateOps::iff(const Set& a, const Set& b) const {
  // (a & b) | (!a & !b), complements relative to the reachable universe.
  BddManager& m = system_->manager();
  const BddRef both = m.bdd_and(a, b);
  const BddRef neither = m.bdd_and(complement(a), complement(b));
  return m.bdd_or(both, neither);
}

Set SymbolicStateOps::ex(const Set& f) const {
  return system_->pre_image(f, reach_);
}

Set SymbolicStateOps::eu(const Set& f, const Set& g) {
  ICTL_PROFILE("sym", "eu_fixpoint");
  BddManager& m = system_->manager();
  BddRef z(m, g.get());
  BddRef frontier(m, g.get());
  last_iterations_ = 0;
  while (frontier.get() != kBddFalse) {
    // Checkpoint before opening the scope: a trip here unwinds across
    // nothing but the rooted z/frontier locals.
    rt::charge_iteration("sym/eu_fixpoint");
    ICTL_FAILPOINT("sym/eu_iter");
    ++last_iterations_;
    // The scope covers one iteration body: GC and growth-triggered sifting
    // are deferred across the pre_image/or/diff chain and fire between
    // iterations, where the BddRef locals cover the live set.  f is the
    // pre-image's care set: f & EX frontier, as f lies inside reach.
    const auto scope = m.protect_scope();
    BddRef next = m.bdd_or(z, system_->pre_image(frontier, f));
    frontier = m.bdd_diff(next, z);
    z = std::move(next);
  }
  ICTL_SPAN_ARG("iterations", last_iterations_);
  return z;
}

Set SymbolicStateOps::eg(const Set& f) {
  ICTL_PROFILE("sym", "eg_fixpoint");
  BddManager& m = system_->manager();
  BddRef z(m, f.get());
  last_iterations_ = 0;
  while (true) {
    rt::charge_iteration("sym/eg_fixpoint");
    ICTL_FAILPOINT("sym/eg_iter");
    ++last_iterations_;
    const auto scope = m.protect_scope();
    // z & EX z, with z (inside reach) as the care set.
    BddRef next = system_->pre_image(z, z);
    if (next.get() == z.get()) {
      ICTL_SPAN_ARG("iterations", last_iterations_);
      return z;
    }
    z = std::move(next);
  }
}

Set SymbolicStateOps::leaf(const FormulaPtr& f) const {
  BddManager& m = system_->manager();
  const kripke::PropRegistry& reg = *system_->registry();

  const auto restrict_or_unknown =
      [&](std::optional<kripke::PropId> prop) -> BddRef {
    if (!prop.has_value()) {
      support::require<LogicError>(
          unknown_atoms_are_false_,
          "symbolic CtlChecker: unknown atomic proposition: " +
              logic::to_string(f));
      return BddRef(m, kBddFalse);
    }
    // Registered proposition without a characteristic function: false in
    // every state — mirroring the explicit engine, where a prop registered
    // after the build has an empty label column, not an error.
    const std::optional<Bdd> states = system_->prop_states(*prop);
    if (!states.has_value()) return BddRef(m, kBddFalse);
    return m.bdd_and(reach_, *states);
  };

  switch (f->kind()) {
    case Kind::kTrue:
      return reach_;
    case Kind::kFalse:
      return BddRef(m, kBddFalse);
    case Kind::kAtom: {
      std::optional<kripke::PropId> prop = reg.find_plain(f->name());
      // Mirror mc::leaf_sat_set: bare names may refer to index-erased
      // propositions of a reduction when no plain prop shadows them.
      if (!prop.has_value()) prop = reg.find_indexed_base(f->name());
      return restrict_or_unknown(prop);
    }
    case Kind::kIndexedAtom: {
      support::require<LogicError>(
          f->index_value().has_value(),
          "symbolic CtlChecker: indexed atom with unbound index variable '" +
              f->index_var() + "': " + logic::to_string(f));
      return restrict_or_unknown(reg.find_indexed(f->name(), *f->index_value()));
    }
    case Kind::kExactlyOne: {
      // A registered theta takes precedence, exactly as in mc::leaf_sat_set:
      // with a characteristic function it is the answer; registered but
      // function-less (theta postdates the build) it is the empty column.
      if (const auto theta = reg.find_theta(f->name())) {
        const auto states = system_->prop_states(*theta);
        return states.has_value() ? m.bdd_and(reach_, *states)
                                  : BddRef(m, kBddFalse);
      }
      // Otherwise the running none/one scan over the member functions.
      BddRef none(m, reach_.get());
      BddRef one(m, kBddFalse);
      for (const kripke::PropId p : reg.indexed_with_base(f->name())) {
        const auto member = system_->prop_states(p);
        if (!member.has_value()) continue;
        one = m.bdd_or(m.bdd_and(one, m.bdd_not(*member)),
                       m.bdd_and(none, *member));
        none = m.bdd_and(none, m.bdd_not(*member));
      }
      return one;
    }
    default:
      throw LogicError("symbolic CtlChecker: not a literal leaf: " +
                       logic::to_string(f));
  }
}

}  // namespace ictl::symbolic
