// Shared structure builders for the test suite.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <utility>
#include <vector>

#include "ictl.hpp"

namespace ictl::testing {

/// A deterministic level2var order that keeps each (2k, 2k+1) BDD-variable
/// pair adjacent (unprimed on top) but scrambles the pair blocks — the
/// legal order family for a manager carrying a symbolic::TransitionSystem's
/// unprimed/primed interleaving (the pair-image kernels and group sifting
/// both rely on it).
inline std::vector<std::uint32_t> scrambled_pair_order(std::uint32_t num_vars,
                                                       std::uint64_t seed) {
  std::vector<std::uint32_t> blocks(num_vars / 2);
  for (std::uint32_t b = 0; b < blocks.size(); ++b) blocks[b] = b;
  std::uint64_t x = seed * 2654435761u + 88172645463325252ULL;  // xorshift64
  for (std::size_t i = blocks.size(); i > 1; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(blocks[i - 1], blocks[x % i]);
  }
  std::vector<std::uint32_t> level2var;
  level2var.reserve(num_vars);
  for (const std::uint32_t b : blocks) {
    level2var.push_back(2 * b);
    level2var.push_back(2 * b + 1);
  }
  return level2var;
}

/// A two-state loop a -> b -> a with labels {a} and {b}.
inline kripke::Structure two_state_loop(kripke::PropRegistryPtr reg) {
  kripke::StructureBuilder b(reg);
  const auto pa = reg->plain("a");
  const auto pb = reg->plain("b");
  const auto s0 = b.add_state({pa});
  const auto s1 = b.add_state({pb});
  b.add_transition(s0, s1);
  b.add_transition(s1, s0);
  b.set_initial(s0);
  return std::move(b).build();
}

/// The stuttered variant: a -> a -> a -> b -> (first a).  Corresponds to
/// two_state_loop with degrees 2, 1, 0 against the first/second/third
/// a-state — the Fig. 3.1 situation.
inline kripke::Structure stuttered_loop(kripke::PropRegistryPtr reg,
                                        std::size_t a_run = 3) {
  kripke::StructureBuilder b(reg);
  const auto pa = reg->plain("a");
  const auto pb = reg->plain("b");
  std::vector<kripke::StateId> as;
  for (std::size_t i = 0; i < a_run; ++i) as.push_back(b.add_state({pa}));
  const auto sb = b.add_state({pb});
  for (std::size_t i = 0; i + 1 < a_run; ++i) b.add_transition(as[i], as[i + 1]);
  b.add_transition(as.back(), sb);
  b.add_transition(sb, as.front());
  b.set_initial(as.front());
  return std::move(b).build();
}

/// A deterministic pseudo-random total structure over propositions {p, q}.
/// Same seed, same structure: usable in parameterized sweeps.
inline kripke::Structure random_structure(kripke::PropRegistryPtr reg,
                                          std::uint32_t num_states,
                                          std::uint32_t seed) {
  kripke::StructureBuilder b(reg);
  const auto pp = reg->plain("p");
  const auto pq = reg->plain("q");
  std::uint64_t x = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t s = 0; s < num_states; ++s) {
    std::vector<kripke::PropId> props;
    if (next() & 1) props.push_back(pp);
    if (next() & 1) props.push_back(pq);
    b.add_state(props);
  }
  for (std::uint32_t s = 0; s < num_states; ++s) {
    const std::uint32_t out_degree = 1 + next() % 3;
    for (std::uint32_t k = 0; k < out_degree; ++k)
      b.add_transition(s, static_cast<kripke::StateId>(next() % num_states));
  }
  b.set_initial(0);
  return kripke::restrict_to_reachable(std::move(b).build());
}

/// Token-ring family generator shared by the ring/network/bisim suites.
/// Builds the Section 5 mutual-exclusion ring M_n; pass a registry to put
/// several sizes of the family on shared propositions (the common case when
/// comparing M_n against M_{n+1}), or omit it for a fresh one.
inline ring::RingSystem ring_of(std::uint32_t n,
                                kripke::PropRegistryPtr reg = nullptr) {
  return ring::RingSystem::build(n, std::move(reg));
}

/// The family {M_n : n in sizes}, all over one shared registry so indexed
/// propositions line up across sizes.
inline std::vector<ring::RingSystem> ring_family(
    std::initializer_list<std::uint32_t> sizes,
    kripke::PropRegistryPtr reg = nullptr) {
  if (!reg) reg = kripke::make_registry();
  std::vector<ring::RingSystem> family;
  for (const auto n : sizes) family.push_back(ring::RingSystem::build(n, reg));
  return family;
}

/// The Section 5 property suite {P1..P4, I2, I3} as (name, formula) pairs —
/// the single builder every suite that checks, compiles, differentials or
/// benches the paper's specifications goes through.  Delegates to
/// ring::section5_specifications() (src/ring/ring.cpp), the library's
/// source of truth, so tests can never drift from the shipped formulas.
inline std::vector<std::pair<std::string, logic::FormulaPtr>>
section_five_properties() {
  return ring::section5_specifications();
}

/// Membership of explicit state `s` in a set-BDD of a from_structure system.
inline bool contains(const symbolic::TransitionSystem& ts, symbolic::Bdd set,
                     kripke::StateId s) {
  std::vector<bool> assignment(ts.manager().num_vars(), false);
  for (std::uint32_t v = 0; v < ts.num_state_vars(); ++v)
    assignment[symbolic::TransitionSystem::unprimed(v)] = ((s >> v) & 1u) != 0;
  return ts.manager().eval(set, assignment);
}

}  // namespace ictl::testing

namespace ictl::symbolic {

/// GoogleTest printer: a failed SatCount comparison shows the exact count.
inline void PrintTo(const SatCount& count, std::ostream* os) {
  if (count.exponent >= 0)
    *os << count.to_decimal_string();
  else
    *os << count.to_double();
}

}  // namespace ictl::symbolic
