#include "bisim/quotient.hpp"

#include <algorithm>

#include "bisim/stuttering.hpp"
#include "support/error.hpp"

namespace ictl::bisim {

using kripke::StateId;

namespace {

void require_label_respecting(const kripke::Structure& m, const Partition& p) {
  support::require<ModelError>(p.num_states() == m.num_states(),
                               "quotient: partition size mismatch");
  for (const auto& block : p.blocks())
    for (const StateId s : block)
      support::require<ModelError>(
          m.label(s) == m.label(block.front()),
          "quotient: partition does not respect labels (block mixes states "
          "with different labelings)");
}

kripke::StructureBuilder block_states(const kripke::Structure& m, const Partition& p) {
  kripke::StructureBuilder builder(m.registry());
  for (const auto& block : p.blocks()) {
    std::vector<kripke::PropId> props;
    m.label(block.front()).for_each([&](std::size_t prop) {
      props.push_back(static_cast<kripke::PropId>(prop));
    });
    static_cast<void>(builder.add_state(props));
  }
  std::vector<std::uint32_t> indices(m.index_set().begin(), m.index_set().end());
  builder.set_index_set(std::move(indices));
  return builder;
}

/// Blocks in which some member has an infinite run of block-internal
/// transitions.
std::vector<bool> divergent_blocks(const kripke::Structure& m, const Partition& p) {
  const std::vector<bool> divergent_state = divergent_states(m, p);
  std::vector<bool> result(p.num_blocks(), false);
  for (StateId s = 0; s < m.num_states(); ++s)
    if (divergent_state[s]) result[p.block_of(s)] = true;
  return result;
}

}  // namespace

QuotientResult quotient_strong(const kripke::Structure& m, const Partition& p) {
  require_label_respecting(m, p);
  kripke::StructureBuilder builder = block_states(m, p);
  for (StateId s = 0; s < m.num_states(); ++s)
    for (const StateId t : m.successors(s))
      builder.add_transition(p.block_of(s), p.block_of(t));
  builder.set_initial(p.block_of(m.initial()));
  QuotientResult result{std::move(builder).build(), {}};
  result.block_of.resize(m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s) result.block_of[s] = p.block_of(s);
  return result;
}

QuotientResult quotient_stuttering(const kripke::Structure& m, const Partition& p) {
  require_label_respecting(m, p);
  kripke::StructureBuilder builder = block_states(m, p);
  const std::vector<bool> divergent = divergent_blocks(m, p);
  for (StateId s = 0; s < m.num_states(); ++s)
    for (const StateId t : m.successors(s))
      if (!p.same_block(s, t)) builder.add_transition(p.block_of(s), p.block_of(t));
  for (std::uint32_t b = 0; b < p.num_blocks(); ++b)
    if (divergent[b]) builder.add_transition(b, b);
  builder.set_initial(p.block_of(m.initial()));
  QuotientResult result{std::move(builder).build(), {}};
  result.block_of.resize(m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s) result.block_of[s] = p.block_of(s);
  return result;
}

}  // namespace ictl::bisim
