#include "mc/leaf_sat.hpp"

#include "kripke/leaf_props.hpp"

namespace ictl::mc {

using support::DynamicBitset;

DynamicBitset leaf_sat_set(const kripke::Structure& m, const logic::FormulaPtr& f) {
  const kripke::LeafProps leaf = kripke::resolve_leaf(*m.registry(), f);
  const std::size_t n = m.num_states();
  DynamicBitset s(n);

  switch (leaf.kind) {
    case kripke::LeafProps::Kind::kAll:
      s.set_all();
      return s;
    case kripke::LeafProps::Kind::kNone:
      return s;
    case kripke::LeafProps::Kind::kOne:
      // A straight copy of the prop column (empty when the prop postdates
      // the build).
      s = m.states_with(leaf.prop);
      return s;
    case kripke::LeafProps::Kind::kExactlyOne: {
      // Word-parallel exactly-one over the member prop columns: `ones`
      // accumulates states holding >= 1 member, `twos` states holding >= 2;
      // the answer is ones & ~twos, computed 64 states per word op.
      DynamicBitset twos(n);
      const auto ones_w = s.mutable_words();
      const auto twos_w = twos.mutable_words();
      for (const kripke::PropId p : leaf.members) {
        const auto col_w = m.states_with(p).words();
        for (std::size_t w = 0; w < ones_w.size(); ++w) {
          twos_w[w] |= ones_w[w] & col_w[w];
          ones_w[w] |= col_w[w];
        }
      }
      for (std::size_t w = 0; w < ones_w.size(); ++w) ones_w[w] &= ~twos_w[w];
      return s;
    }
  }
  return s;
}

}  // namespace ictl::mc
