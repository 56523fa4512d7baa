#include "mc/ctlstar_checker.hpp"

#include "logic/classify.hpp"
#include "logic/printer.hpp"
#include "logic/rewrite.hpp"
#include "mc/leaf_sat.hpp"
#include "mc/product.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace ictl::mc {

using logic::Formula;
using logic::FormulaPtr;
using logic::Kind;

Checker::Checker(const kripke::Structure& m, CheckerOptions options)
    : m_(m), options_(options) {
  support::require<ModelError>(m.is_total(),
                               "Checker: transition relation must be total");
}

const SatSet& Checker::sat(const FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "Checker::sat: null formula");
  support::require<LogicError>(
      logic::is_state_formula(f),
      "Checker::sat: not a state formula: " + logic::to_string(f));
  if (auto it = memo_.find(f->id()); it != memo_.end()) return it->second;
  SatSet result = compute(f);
  retained_.push_back(f);
  return memo_.emplace(f->id(), std::move(result)).first->second;
}

bool Checker::holds_initially(const FormulaPtr& f) { return sat(f).test(m_.initial()); }

SatSet Checker::compute(const FormulaPtr& f) {
  const std::size_t n = m_.num_states();

  if (options_.use_ctl_fast_path && logic::is_ctl(f)) {
    if (ctl_ == nullptr) ctl_ = std::make_unique<CtlChecker>(m_);
    ++stats_.ctl_fast_path_hits;
    return ctl_->sat(f);
  }

  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
    case Kind::kIndexedAtom:
    case Kind::kExactlyOne:
      return leaf_sat_set(m_, f);
    case Kind::kNot: {
      SatSet s = sat(f->lhs());
      s.flip();
      return s;
    }
    case Kind::kAnd:
      return sat(f->lhs()) & sat(f->rhs());
    case Kind::kOr:
      return sat(f->lhs()) | sat(f->rhs());
    case Kind::kImplies: {
      SatSet s = sat(f->lhs());
      s.flip();
      s |= sat(f->rhs());
      return s;
    }
    case Kind::kIff: {
      SatSet s = sat(f->lhs());
      s ^= sat(f->rhs());
      s.flip();
      return s;
    }
    case Kind::kExistsPath:
      return sat_exists_path(f->lhs());
    case Kind::kForallPath: {
      // A(g) = !E(!g)
      SatSet s = sat_exists_path(logic::make_not(f->lhs()));
      s.flip();
      return s;
    }
    case Kind::kForallIndex:
    case Kind::kExistsIndex: {
      const auto indices = m_.index_set();
      support::require<LogicError>(
          !indices.empty(),
          "Checker: structure has an empty index set but the formula "
          "quantifies over indices: " +
              logic::to_string(f));
      SatSet acc(n);
      if (f->kind() == Kind::kForallIndex) acc.set_all();
      for (const std::uint32_t i : indices) {
        const FormulaPtr inst = logic::bind_index(f->lhs(), f->name(), i);
        if (f->kind() == Kind::kForallIndex)
          acc &= sat(inst);
        else
          acc |= sat(inst);
      }
      return acc;
    }
    default:
      throw LogicError("Checker: not a state formula: " + logic::to_string(f));
  }
}

FormulaPtr Checker::abstract_state_subformulas(const FormulaPtr& g) {
  if (logic::is_state_formula(g)) {
    // True/false need no placeholder; everything else gets one so the
    // tableau sees a plain literal.
    if (g->kind() == Kind::kTrue || g->kind() == Kind::kFalse) return g;
    if (auto it = placeholder_of_.find(g->id()); it != placeholder_of_.end())
      return it->second;
    // std::string + append: gcc 12's -O3 flags the inlined "..." + std::string&&
    // insert with a false -Werror=restrict.
    const std::string name =
        std::string("@").append(std::to_string(next_placeholder_++));
    FormulaPtr ph = logic::atom(name);
    placeholder_of_.emplace(g->id(), ph);
    placeholder_target_.emplace(name, g);
    // Keep the original alive: memoize its sat set now (also primes the
    // resolver).
    static_cast<void>(sat(g));
    return ph;
  }
  const FormulaPtr lhs =
      g->lhs() != nullptr ? abstract_state_subformulas(g->lhs()) : nullptr;
  const FormulaPtr rhs =
      g->rhs() != nullptr ? abstract_state_subformulas(g->rhs()) : nullptr;
  switch (g->kind()) {
    case Kind::kNot: return logic::make_not(lhs);
    case Kind::kAnd: return logic::make_and(lhs, rhs);
    case Kind::kOr: return logic::make_or(lhs, rhs);
    case Kind::kImplies: return logic::make_implies(lhs, rhs);
    case Kind::kIff: return logic::make_iff(lhs, rhs);
    case Kind::kUntil: return logic::make_until(lhs, rhs);
    case Kind::kRelease: return logic::make_release(lhs, rhs);
    case Kind::kEventually: return logic::make_eventually(lhs);
    case Kind::kAlways: return logic::make_always(lhs);
    case Kind::kNext: return logic::make_next(lhs);
    default:
      throw LogicError("abstract_state_subformulas: unexpected operator in: " +
                       logic::to_string(g));
  }
}

SatSet Checker::sat_exists_path(const FormulaPtr& g) {
  // E(g) with g a state formula is just g: R is total, so every state starts
  // some path, and g only looks at the first state.
  if (logic::is_state_formula(g)) return sat(g);

  ICTL_PROFILE("ctlstar", "exists_path");
  const FormulaPtr abstracted = abstract_state_subformulas(g);
  const FormulaPtr nnf = logic::to_nnf(logic::desugar(abstracted));
  const Gba gba = build_gba(nnf);
  ++stats_.tableau_builds;
  stats_.tableau_nodes_built += gba.tableau_nodes_built;
  stats_.gba_nodes += gba.nodes.size();

  // Leaves are placeholders or genuine literals; resolve both.
  std::unordered_map<std::uint64_t, SatSet> leaf_cache;
  LeafResolver resolver = [&](const FormulaPtr& leaf) -> const SatSet& {
    if (leaf->kind() == Kind::kAtom) {
      if (auto it = placeholder_target_.find(leaf->name());
          it != placeholder_target_.end()) {
        // Placeholder: the satisfying set was memoized when it was created;
        // hand out a reference to the memo entry rather than copying it
        // (memo_ is not mutated while the product is explored).
        const auto memo_it = memo_.find(it->second->id());
        ICTL_ASSERT(memo_it != memo_.end());
        return memo_it->second;
      }
    }
    if (auto it = leaf_cache.find(leaf->id()); it != leaf_cache.end())
      return it->second;
    return leaf_cache.emplace(leaf->id(), leaf_sat_set(m_, leaf)).first->second;
  };

  ProductStats pstats;
  SatSet result = exists_fair_path(m_, gba, resolver, &pstats);
  stats_.product_states += pstats.product_states;
  ICTL_SPAN_ARG("product_states", pstats.product_states);
  return result;
}

void Checker::publish_stats(obs::Registry& registry) const {
  registry.set("ctlstar", "tableau_builds", stats_.tableau_builds);
  registry.set("ctlstar", "tableau_nodes_built", stats_.tableau_nodes_built);
  registry.set("ctlstar", "gba_nodes", stats_.gba_nodes);
  registry.set("ctlstar", "product_states", stats_.product_states);
  registry.set("ctlstar", "ctl_fast_path_hits", stats_.ctl_fast_path_hits);
  if (ctl_ != nullptr) ctl_->publish_stats(registry);
}

}  // namespace ictl::mc
