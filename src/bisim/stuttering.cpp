#include "bisim/stuttering.hpp"

#include <algorithm>
#include <span>

#include "obs/obs.hpp"
#include "rt/budget.hpp"

namespace ictl::bisim {
namespace {

using kripke::StateId;

/// One refinement round's view of the inert graph (the transitions that stay
/// inside their source's block), condensed into strongly connected
/// components.  Every state of an inert SCC can reach every other by an
/// inert run, so the members share one exit signature and one divergence
/// bit; both are stored per SCC, the signatures back to back in one pool.
struct InertCondensation {
  std::vector<std::uint32_t> scc_of;     ///< state -> SCC id
  std::vector<std::uint32_t> sig_begin;  ///< SCC c: pool[sig_begin[c], sig_begin[c+1])
  std::vector<std::uint32_t> pool;       ///< sorted, unique block ids per SCC
  std::vector<bool> divergent;           ///< per SCC

  [[nodiscard]] std::span<const std::uint32_t> signature(std::uint32_t c) const {
    return {pool.data() + sig_begin[c], pool.data() + sig_begin[c + 1]};
  }
};

/// Computes, in one iterative Tarjan pass over the inert edges, every state's
/// exit signature — the set of blocks (other than its own) reachable by an
/// inert run followed by a single exiting transition — and whether it
/// diverges (has an infinite inert run).  Tarjan emits SCCs in reverse
/// topological order, so when an SCC is emitted every SCC its inert edges
/// reach is already final: the SCC's signature is the sorted, unique union of
/// its members' direct exits and those SCCs' signatures, and it diverges when
/// it has more than one member, an inert self-loop, or an inert edge into a
/// divergent SCC.  O(n + m) set work per round instead of one chaotic sweep
/// over every inert edge per unit of propagation distance.
InertCondensation condense_inert(const kripke::Structure& m, const Partition& p) {
  constexpr std::uint32_t kUnvisited = static_cast<std::uint32_t>(-1);
  const std::size_t n = m.num_states();
  InertCondensation out;
  out.scc_of.assign(n, kUnvisited);
  out.sig_begin.push_back(0);

  std::vector<std::uint32_t> index(n, kUnvisited), low(n, 0);
  std::vector<StateId> stack;  // Tarjan's stack; membership = index set, scc unset
  struct Frame {
    StateId state;
    std::uint32_t next_edge;
  };
  std::vector<Frame> frames;
  // merged_into[c] = the SCC that last folded c's signature in, so an SCC
  // reached over several edges is merged once.
  std::vector<std::uint32_t> merged_into;
  Partition::Signature scratch;
  std::uint32_t next_index = 0;
  std::uint64_t visited = 0;

  auto discover = [&](StateId s) {
    // Sweeps over a large union can be long on their own; keep the deadline
    // responsive with a batched check.
    if ((++visited & 0xfff) == 0) rt::checkpoint("bisim/stutter_signatures");
    index[s] = low[s] = next_index++;
    stack.push_back(s);
    frames.push_back({s, 0});
  };

  auto emit = [&](StateId root) {
    const auto id = static_cast<std::uint32_t>(out.divergent.size());
    std::size_t first = stack.size();  // the SCC is stack[first..], root first
    while (stack[--first] != root) {
    }
    for (std::size_t k = first; k < stack.size(); ++k) out.scc_of[stack[k]] = id;
    bool divergent = stack.size() - first > 1;
    merged_into.push_back(id);
    scratch.clear();
    for (std::size_t k = first; k < stack.size(); ++k) {
      const StateId s = stack[k];
      for (const StateId t : m.successors(s)) {
        if (!p.same_block(s, t)) {
          scratch.push_back(p.block_of(t));
          continue;
        }
        const std::uint32_t c = out.scc_of[t];
        if (c == id) {
          divergent = divergent || t == s;
          continue;
        }
        divergent = divergent || out.divergent[c];
        if (merged_into[c] == id) continue;
        merged_into[c] = id;
        const auto reached = out.signature(c);
        scratch.insert(scratch.end(), reached.begin(), reached.end());
      }
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    out.pool.insert(out.pool.end(), scratch.begin(), scratch.end());
    out.sig_begin.push_back(static_cast<std::uint32_t>(out.pool.size()));
    out.divergent.push_back(divergent);
    stack.resize(first);
  };

  for (StateId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    discover(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const StateId s = f.state;
      const auto succ = m.successors(s);
      if (f.next_edge < succ.size()) {
        const StateId t = succ[f.next_edge++];
        if (!p.same_block(s, t)) continue;
        if (index[t] == kUnvisited)
          discover(t);  // invalidates f
        else if (out.scc_of[t] == kUnvisited)
          low[s] = std::min(low[s], index[t]);  // t is still on the stack
        continue;
      }
      frames.pop_back();
      if (low[s] == index[s]) emit(s);
      if (!frames.empty()) {
        const StateId parent = frames.back().state;
        low[parent] = std::min(low[parent], low[s]);
      }
    }
  }
  return out;
}

}  // namespace

Partition stuttering_partition(const kripke::Structure& m, StutteringOptions options) {
  Partition p = Partition::by_labels(m);
  std::uint64_t rounds = 0;
  while (true) {
    ++rounds;
    rt::charge_iteration("bisim/stutter_refine");
    const InertCondensation inert = condense_inert(m, p);
    const bool changed = p.refine([&](StateId s) {
      const std::uint32_t c = inert.scc_of[s];
      const auto sig = inert.signature(c);
      Partition::Signature full(sig.begin(), sig.end());
      if (options.divergence_sensitive && inert.divergent[c])
        full.push_back(static_cast<std::uint32_t>(p.num_blocks()));  // divergence marker
      return full;
    });
    if (!changed) break;
  }
  ICTL_SPAN_ARG("rounds", rounds);
  return p;
}

std::vector<bool> divergent_states(const kripke::Structure& m, const Partition& p) {
  const InertCondensation inert = condense_inert(m, p);
  std::vector<bool> divergent(m.num_states());
  for (StateId s = 0; s < m.num_states(); ++s)
    divergent[s] = inert.divergent[inert.scc_of[s]];
  return divergent;
}

bool stuttering_equivalent(const kripke::Structure& a, const kripke::Structure& b,
                           StutteringOptions options) {
  const kripke::Structure u = kripke::disjoint_union(a, b);
  const Partition p = stuttering_partition(u, options);
  const kripke::StateId b_initial =
      static_cast<kripke::StateId>(a.num_states()) + b.initial();
  return p.same_block(a.initial(), b_initial);
}

}  // namespace ictl::bisim
