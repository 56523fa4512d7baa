#include "kripke/leaf_props.hpp"

#include <optional>

#include "logic/printer.hpp"
#include "support/error.hpp"

namespace ictl::kripke {

using logic::Kind;

LeafProps resolve_leaf(const PropRegistry& registry, const logic::FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "resolve_leaf: null formula");
  LeafProps leaf;
  std::optional<PropId> prop;
  switch (f->kind()) {
    case Kind::kTrue:
      leaf.kind = LeafProps::Kind::kAll;
      return leaf;
    case Kind::kFalse:
      return leaf;
    case Kind::kExactlyOne:
      prop = registry.find_theta(f->name());
      if (!prop.has_value()) {
        leaf.kind = LeafProps::Kind::kExactlyOne;
        leaf.members = registry.indexed_with_base(f->name());
        return leaf;
      }
      break;
    case Kind::kAtom:
      prop = registry.find_plain(f->name());
      if (!prop.has_value()) prop = registry.find_indexed_base(f->name());
      break;
    case Kind::kIndexedAtom:
      // Messages are built only on failure: leaves are resolved on every
      // evaluation.
      if (!f->index_value().has_value())
        throw LogicError("resolve_leaf: indexed atom with unbound index variable '" +
                         f->index_var() + "': " + logic::to_string(f));
      prop = registry.find_indexed(f->name(), *f->index_value());
      break;
    default:
      throw LogicError("resolve_leaf: not a literal leaf: " + logic::to_string(f));
  }
  if (!prop.has_value())
    throw LogicError("resolve_leaf: unknown atomic proposition: " +
                     logic::to_string(f));
  leaf.kind = LeafProps::Kind::kOne;
  leaf.prop = *prop;
  return leaf;
}

}  // namespace ictl::kripke
