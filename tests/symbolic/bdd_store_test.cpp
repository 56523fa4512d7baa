// bdd_store: round-trip fidelity of the serialized node store (variable
// order, live nodes, named roots), the versioned-header and checksum
// validation paths (bad magic, truncation, corruption), and the
// TransitionSystem layer — including the acceptance pin: the M_64
// partitioned ring relation plus its reachable fixpoint reloads with
// identical exact sat counts and CTL verdicts, at least 10x faster than
// recomputing the fixpoint from scratch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "obs/obs.hpp"
#include "ring/ring.hpp"
#include "symbolic/bdd_store.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::symbolic {
namespace {

using ictl::testing::scrambled_pair_order;

/// Truth table over the first `n <= 6` variables — comparable across
/// managers because assignments are indexed by VARIABLE.
std::uint64_t table_of(const BddManager& mgr, Bdd f, std::uint32_t n) {
  std::uint64_t table = 0;
  for (std::uint32_t a = 0; a < (1u << n); ++a) {
    std::vector<bool> assignment(mgr.num_vars(), false);
    for (std::uint32_t v = 0; v < n; ++v) assignment[v] = ((a >> v) & 1u) != 0;
    if (mgr.eval(f, assignment)) table |= std::uint64_t{1} << a;
  }
  return table;
}

TEST(BddStore, RoundTripPreservesOrderFunctionsAndCounts) {
  auto mgr = std::make_shared<BddManager>(6);
  mgr->set_initial_order(scrambled_pair_order(6, 99));
  const BddRef f = mgr->bdd_or(mgr->bdd_and(mgr->var(0), mgr->var(3)),
                               mgr->bdd_xor(mgr->var(2), mgr->var(5)));
  const BddRef g = mgr->bdd_iff(mgr->var(1), mgr->bdd_not(mgr->var(4)));
  const BddRef h = mgr->bdd_and(f, g);  // shares structure with f and g

  std::stringstream stream;
  const std::vector<std::pair<std::string, Bdd>> roots = {
      {"f", f}, {"g", g}, {"h", h}, {"top", kBddTrue}, {"bot", kBddFalse}};
  save_bdds(*mgr, stream, roots);

  const LoadedBdds loaded = load_bdds(stream);
  ASSERT_EQ(loaded.roots.size(), roots.size());
  EXPECT_EQ(loaded.manager->num_vars(), mgr->num_vars());
  EXPECT_EQ(loaded.manager->current_order(), mgr->current_order());
  EXPECT_EQ(loaded.root("top"), kBddTrue);
  EXPECT_EQ(loaded.root("bot"), kBddFalse);
  EXPECT_THROW(static_cast<void>(loaded.root("nope")), Error);

  for (const auto& [name, handle] : roots) {
    const Bdd reloaded = loaded.root(name);
    EXPECT_EQ(table_of(*loaded.manager, reloaded, 6), table_of(*mgr, handle, 6))
        << name;
    EXPECT_EQ(loaded.manager->dag_size(reloaded), mgr->dag_size(handle)) << name;
    EXPECT_EQ(loaded.manager->sat_count_exact(reloaded),
              mgr->sat_count_exact(handle))
        << name;
  }
  // The loaded store is reduced and hash-consed by construction, and the
  // shared structure stayed shared: h reuses f's and g's nodes.
  const auto rep = loaded.manager->audit();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  const std::vector<Bdd> all = {loaded.root("f"), loaded.root("g"),
                                loaded.root("h")};
  EXPECT_EQ(loaded.manager->dag_size(all),
            mgr->dag_size(std::vector<Bdd>{f.get(), g.get(), h.get()}));
}

TEST(BddStore, SaveIsDeterministic) {
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef f = mgr->bdd_xor(mgr->var(0), mgr->bdd_and(mgr->var(1), mgr->var(3)));
  const std::vector<std::pair<std::string, Bdd>> roots = {{"f", f}};
  std::stringstream a, b;
  save_bdds(*mgr, a, roots);
  save_bdds(*mgr, b, roots);
  EXPECT_EQ(a.str(), b.str());
}

TEST(BddStore, RejectsDuplicateNamesAndRetiredRoots) {
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef f = mgr->bdd_and(mgr->var(0), mgr->var(1));
  std::stringstream out;
  const std::vector<std::pair<std::string, Bdd>> dup = {{"f", f}, {"f", f}};
  EXPECT_THROW(save_bdds(*mgr, out, dup), Error);

  Bdd dead = kBddFalse;
  {
    const BddRef tmp = mgr->bdd_or(mgr->var(2), mgr->var(3));
    dead = tmp.get();
  }
  ASSERT_GT(mgr->garbage_collect(), 0u);
  ASSERT_TRUE(mgr->is_retired(dead));
  const std::vector<std::pair<std::string, Bdd>> retired = {{"zombie", dead}};
  EXPECT_THROW(save_bdds(*mgr, out, retired), Error);
}

TEST(BddStore, TruncatedCorruptedAndMislabeledStreamsAreErrors) {
  auto mgr = std::make_shared<BddManager>(6);
  const BddRef f = mgr->bdd_or(mgr->bdd_and(mgr->var(0), mgr->var(1)),
                               mgr->bdd_xor(mgr->var(2), mgr->var(4)));
  std::stringstream stream;
  const std::vector<std::pair<std::string, Bdd>> roots = {{"f", f}};
  save_bdds(*mgr, stream, roots);
  const std::string blob = stream.str();

  // Truncation at assorted depths: header, node records, checksum tail.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{4}, blob.size() / 3, blob.size() - 1}) {
    std::stringstream in(blob.substr(0, len));
    EXPECT_THROW(static_cast<void>(load_bdds(in)), Error) << "len " << len;
  }
  // A flipped byte anywhere fails — structural validation or the checksum.
  for (const std::size_t at : {std::size_t{10}, blob.size() / 2, blob.size() - 3}) {
    std::string corrupt = blob;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x5a);
    std::stringstream in(corrupt);
    EXPECT_THROW(static_cast<void>(load_bdds(in)), Error) << "byte " << at;
  }
  // A wrong magic is rejected up front.
  std::string wrong = blob;
  wrong[0] = 'X';
  std::stringstream in(wrong);
  EXPECT_THROW(static_cast<void>(load_bdds(in)), Error);
}

/// Overwrites a little-endian integer field inside a serialized blob.
template <typename T>
void patch_le(std::string& blob, std::size_t at, T value) {
  ASSERT_LE(at + sizeof(T), blob.size());
  for (std::size_t i = 0; i < sizeof(T); ++i)
    blob[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
}

TEST(BddStore, AllocationBombHeadersAreRejectedBeforeReserving) {
  auto mgr = std::make_shared<BddManager>(4);
  const BddRef f = mgr->bdd_and(mgr->var(0), mgr->var(3));
  std::stringstream stream;
  const std::vector<std::pair<std::string, Bdd>> roots = {{"f", f}};
  save_bdds(*mgr, stream, roots);
  const std::string blob = stream.str();

  // Header layout: magic(8) version(4) num_vars(4) order(4*num_vars)
  // num_nodes(8) num_roots(4).  A tiny file declaring ~2^31 nodes or roots
  // must fail the remaining-size cross-check instead of reserving gigabytes
  // (the checksum alone would also catch it — but only AFTER the reserve).
  const std::size_t nodes_at = 8 + 4 + 4 + 4 * mgr->num_vars();
  const std::size_t roots_at = nodes_at + 8;
  {
    std::string bomb = blob;
    patch_le<std::uint64_t>(bomb, nodes_at, std::uint64_t{1} << 31);
    std::stringstream in(bomb);
    try {
      static_cast<void>(load_bdds(in));
      FAIL() << "node-count bomb was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("remaining file size"),
                std::string::npos)
          << e.what();
    }
  }
  {
    std::string bomb = blob;
    patch_le<std::uint32_t>(bomb, roots_at, (std::uint32_t{1} << 31) + 7);
    std::stringstream in(bomb);
    try {
      static_cast<void>(load_bdds(in));
      FAIL() << "root-count bomb was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("remaining file size"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BddStoreTransitionSystem, AllocationBombHeadersAreRejected) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 9, 5);
  auto orig = std::make_shared<const TransitionSystem>(from_structure(m));
  std::stringstream stream;
  save_transition_system(*orig, stream);
  const std::string blob = stream.str();

  // Header layout: magic(8) version(4) num_state_vars(4) kind(4)
  // num_parts(4) num_props(4).
  for (const std::size_t at : {std::size_t{20}, std::size_t{24}}) {
    std::string bomb = blob;
    patch_le<std::uint32_t>(bomb, at, (std::uint32_t{1} << 31) + 3);
    std::stringstream in(bomb);
    try {
      static_cast<void>(load_transition_system(in, reg));
      FAIL() << "count bomb at offset " << at << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("remaining file size"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BddStoreTransitionSystem, BridgeSystemRoundTripsPropsAndVerdicts) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 23, 11);
  auto orig = std::make_shared<const TransitionSystem>(from_structure(m));
  static_cast<void>(orig->reachable());

  std::stringstream stream;
  save_transition_system(*orig, stream);
  auto loaded = std::make_shared<const TransitionSystem>(
      load_transition_system(stream, reg));

  EXPECT_EQ(loaded->num_state_vars(), orig->num_state_vars());
  EXPECT_EQ(loaded->partition().size(), orig->partition().size());
  EXPECT_TRUE(loaded->reachable_computed());
  EXPECT_EQ(loaded->num_states(), orig->num_states());
  EXPECT_EQ(loaded->registry(), reg);
  ASSERT_EQ(loaded->props().size(), orig->props().size());
  for (std::size_t i = 0; i < orig->props().size(); ++i) {
    EXPECT_EQ(loaded->props()[i].first, orig->props()[i].first);
    EXPECT_EQ(loaded->manager().sat_count_exact(loaded->props()[i].second),
              orig->manager().sat_count_exact(orig->props()[i].second));
  }

  CtlChecker before(orig);
  CtlChecker after(loaded);
  const std::vector<logic::FormulaPtr> formulas = {
      logic::AG(logic::EF(logic::atom("p"))),
      logic::EU(logic::atom("p"), logic::atom("q")),
      logic::AF(logic::make_or(logic::atom("q"), logic::make_not(logic::atom("p")))),
      logic::EG(logic::atom("q"))};
  for (const auto& f : formulas) {
    EXPECT_EQ(after.holds_initially(f), before.holds_initially(f))
        << logic::to_string(f);
    EXPECT_EQ(loaded->count_states(after.sat(f)), orig->count_states(before.sat(f)))
        << logic::to_string(f);
  }
}

TEST(BddStoreTransitionSystem, NonzeroKindSlotIsRejected) {
  // The header keeps its partition-kind slot; the only kind is disjunctive
  // (0), so a store whose slot says otherwise is corrupt — even with a
  // valid checksum — and must fail with a typed Error, not load.
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 9, 5);
  const TransitionSystem orig = from_structure(m);
  std::stringstream stream;
  save_transition_system(orig, stream);
  const std::string blob = stream.str();

  // Header layout: magic(8) version(4) num_state_vars(4) kind(4)
  // num_parts(4) num_props(4) props(4 each) num_indices(4) indices(4 each)
  // reach flag(4), then the FNV-1a checksum of those bytes (8).
  constexpr std::size_t kKindAt = 16;
  const std::size_t header_len = 8 + 4 + 4 + 4 + 4 + 4 + 4 * orig.props().size() + 4 +
                                 4 * orig.index_set().size() + 4;
  const auto header_checksum = [&](const std::string& bytes) {
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < header_len; ++i)
      fnv = (fnv ^ static_cast<unsigned char>(bytes[i])) * 0x100000001b3ULL;
    return fnv;
  };
  // The layout above is right: the writer's 0 sits in the slot and the
  // recomputed checksum matches the stored one.
  ASSERT_EQ(blob.substr(kKindAt, 4), std::string(4, '\0'));
  std::string resealed = blob;
  patch_le<std::uint64_t>(resealed, header_len, header_checksum(blob));
  ASSERT_EQ(resealed, blob);

  for (const std::uint32_t kind : {1u, 2u, 0xffffffffu}) {
    std::string corrupt = blob;
    patch_le<std::uint32_t>(corrupt, kKindAt, kind);
    patch_le<std::uint64_t>(corrupt, header_len, header_checksum(corrupt));
    std::stringstream in(corrupt);
    try {
      static_cast<void>(load_transition_system(in, reg));
      FAIL() << "partition-kind slot " << kind << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("partition kind"), std::string::npos)
          << e.what();
    }
  }
}

TEST(BddStoreTransitionSystem, M64RingRoundTripIsExactAndFast) {
  auto reg = kripke::make_registry();

  const std::uint64_t t0 = obs::now_ns();
  const SymbolicRing ring = build_symbolic_ring(64, nullptr, reg);
  const SatCount states = ring.system->num_states();  // forces the fixpoint
  const std::uint64_t t1 = obs::now_ns();
  ASSERT_TRUE(ring.system->reachable_computed());
  // The family count r * 2^r at r = 64 is 2^70 — past the 2^53 double
  // cliff, which is exactly why num_states() went exact.
  EXPECT_EQ(states, SatCount::make(64, 64));
  EXPECT_EQ(states.to_decimal_string(), "1180591620717411303424");
  EXPECT_DOUBLE_EQ(states.to_double(), std::ldexp(1.0, 70));

  std::stringstream stream;
  save_transition_system(*ring.system, stream);
  const std::uint64_t t2 = obs::now_ns();
  auto loaded = std::make_shared<const TransitionSystem>(
      load_transition_system(stream, reg));
  const std::uint64_t t3 = obs::now_ns();

  // The fixpoint came back with the store: identical exact count with no
  // recomputation, and the relation's shape survived.
  EXPECT_TRUE(loaded->reachable_computed());
  EXPECT_EQ(loaded->num_states(), states);
  EXPECT_EQ(loaded->partition().size(), ring.system->partition().size());
  EXPECT_EQ(loaded->num_state_vars(), ring.system->num_state_vars());
  EXPECT_EQ(loaded->manager().sat_count_exact(loaded->initial()),
            ring.system->manager().sat_count_exact(ring.system->initial()));
  for (std::size_t k = 0; k < loaded->partition().size(); ++k)
    EXPECT_EQ(loaded->manager().sat_count_exact(loaded->partition()[k]),
              ring.system->manager().sat_count_exact(ring.system->partition()[k]))
        << "part " << k;

  // Reload must beat recomputation by at least 10x (the acceptance bound;
  // the fixpoint saturation dominates the build).  Skipped under ICTL_AUDIT:
  // the load path then deep-audits the whole store — including re-verifying
  // the adopted fixpoint via post_image — which is the point of that build,
  // not a perf regression.
  const std::uint64_t recompute = t1 - t0;
  const std::uint64_t reload = t3 - t2;
#ifndef ICTL_AUDIT
  EXPECT_LE(reload * 10, recompute)
      << "reload " << reload / 1000000 << "ms vs recompute "
      << recompute / 1000000 << "ms";
#else
  static_cast<void>(recompute);
  static_cast<void>(reload);
#endif

  // CTL verdicts are identical on the reloaded system.  P2 and I3 are the
  // two specifications the engine pins at large r (the full six-spec
  // Section 5 suite expands index quantifiers into 64 fixpoints apiece —
  // minutes of work that the differential suite already covers at r = 16).
  CtlChecker before(ring.system);
  CtlChecker after(loaded);
  for (const auto& f : {ring::property_critical_implies_token(),
                        ring::invariant_one_token()}) {
    const bool expected = before.holds_initially(f);
    EXPECT_EQ(after.holds_initially(f), expected) << logic::to_string(f);
    EXPECT_TRUE(expected) << logic::to_string(f);
  }
}

}  // namespace
}  // namespace ictl::symbolic
