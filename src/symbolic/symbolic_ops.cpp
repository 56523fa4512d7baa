#include "symbolic/symbolic_ops.hpp"

#include <optional>
#include <utility>

#include "kripke/leaf_props.hpp"
#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "rt/failpoint.hpp"
#include "support/error.hpp"

namespace ictl::symbolic {

using logic::FormulaPtr;
using Set = SymbolicStateOps::Set;

SymbolicStateOps::SymbolicStateOps(std::shared_ptr<const TransitionSystem> system)
    : system_(std::move(system)) {
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
  const kripke::LeafProps leaf = kripke::resolve_leaf(*system_->registry(), f);
  switch (leaf.kind) {
    case kripke::LeafProps::Kind::kAll:
      return reach_;
    case kripke::LeafProps::Kind::kNone:
      return BddRef(m, kBddFalse);
    case kripke::LeafProps::Kind::kOne: {
      // Registered proposition without a characteristic function: false in
      // every state, as the explicit engine's empty label column.
      const std::optional<Bdd> states = system_->prop_states(leaf.prop);
      return states.has_value() ? m.bdd_and(reach_, *states)
                                : BddRef(m, kBddFalse);
    }
    case kripke::LeafProps::Kind::kExactlyOne: {
      // The running none/one scan over the member functions.
      BddRef none(m, reach_.get());
      BddRef one(m, kBddFalse);
      for (const kripke::PropId p : leaf.members) {
        const auto member = system_->prop_states(p);
        if (!member.has_value()) continue;
        one = m.bdd_or(m.bdd_and(one, m.bdd_not(*member)),
                       m.bdd_and(none, *member));
        none = m.bdd_and(none, m.bdd_not(*member));
      }
      return one;
    }
  }
  return BddRef(m, kBddFalse);
}

}  // namespace ictl::symbolic
