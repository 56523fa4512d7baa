// A Kripke structure encoded symbolically: state variables as BDD
// variables, the transition relation as a PARTITIONED list of BDDs —
// T(x, x') is the disjunction of per-rule/per-cluster relations (one
// process moves per step: the paper's networks are asynchronous) that are
// never combined into one monolithic BDD on the hot path — plus
// per-proposition characteristic functions and pre_image/post_image
// primitives mirroring the CSR primitives of kripke::Structure, over
// sets-as-BDDs, so the state space is never enumerated.
//
// Image computation: every image is one call of a fused pair kernel
// (BddManager::pair_pre_image / pair_post_image), which quantifies by
// variable parity and does the prime/unprime renaming inside the same
// recursion — no primed copy of a set is ever built.  reachable() chains
// the parts to saturation (the big win: one sweep carries the ring token
// all the way around), while the single-step pre/post images run against
// the lazily combined relation (the parts keep the COMBINE cheap).  The
// pre-image takes a care set (`within`): the CTL fixpoints pass the set
// they would intersect the image with anyway, and the kernel never
// explores predecessors outside it.
//
// Lifetimes: everything the system retains — initial set, partition,
// prop functions, the cached monolithic relation and reachable set — is
// held in BddRef roots, so it survives garbage
// collection and reordering while everything transient (image
// intermediates, fixpoint frontiers) becomes collectible the moment its
// ref dies.  The image primitives return BddRef: callers own their
// results.
//
// Variable convention: state variable v (0-based, v < num_state_vars) owns
// the BDD variable pair (2v, 2v+1) — unprimed interleaved with primed, each
// pair on adjacent levels with the unprimed variable on top.  The image
// kernels rely on this layout (audit() checks it); dynamic reordering keeps
// it by group-sifting the pairs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "kripke/prop_registry.hpp"
#include "kripke/structure.hpp"
#include "symbolic/bdd.hpp"

namespace ictl::symbolic {

class TransitionSystem {
 public:
  /// Assembles a system over `mgr` (which must already own the 2 *
  /// num_state_vars BDD variables).  `initial` and every prop function are
  /// over unprimed variables; each element of `partition` relates unprimed
  /// to primed, and T is their disjunction.  `props` maps registry ids to
  /// characteristic functions; `index_set` mirrors
  /// kripke::Structure::index_set for the index quantifiers.  The raw
  /// handles are rooted (BddRef) before any further BDD operation runs, so
  /// callers may pass unrooted results built under a protect_scope.
  TransitionSystem(std::shared_ptr<BddManager> mgr, std::uint32_t num_state_vars,
                   Bdd initial, std::vector<Bdd> partition,
                   kripke::PropRegistryPtr registry,
                   std::vector<std::pair<kripke::PropId, Bdd>> props,
                   std::vector<std::uint32_t> index_set);

  /// Single-partition convenience (the explicit bridge and legacy callers):
  /// a monolithic `transitions` BDD is a one-element partition.
  TransitionSystem(std::shared_ptr<BddManager> mgr, std::uint32_t num_state_vars,
                   Bdd initial, Bdd transitions, kripke::PropRegistryPtr registry,
                   std::vector<std::pair<kripke::PropId, Bdd>> props,
                   std::vector<std::uint32_t> index_set);

  [[nodiscard]] static constexpr std::uint32_t unprimed(std::uint32_t v) {
    return 2 * v;
  }
  [[nodiscard]] static constexpr std::uint32_t primed(std::uint32_t v) {
    return 2 * v + 1;
  }

  [[nodiscard]] BddManager& manager() const noexcept { return *mgr_; }
  [[nodiscard]] const std::shared_ptr<BddManager>& manager_ptr() const noexcept {
    return mgr_;
  }
  [[nodiscard]] std::uint32_t num_state_vars() const noexcept { return num_state_vars_; }
  [[nodiscard]] Bdd initial() const noexcept { return initial_.get(); }

  /// The partitioned relation (system-rooted refs); T is their disjunction.
  [[nodiscard]] std::span<const BddRef> partition() const noexcept { return parts_; }

  /// The monolithic T(x, x') — combined lazily on first request, cached and
  /// system-rooted; the image primitives never need it.
  [[nodiscard]] Bdd transitions() const;

  /// Total BDD nodes across the partition (shared nodes counted once).
  [[nodiscard]] std::size_t relation_node_count() const;

  /// { x in within | exists x'. T(x, x') & S(x') } — the states of `within`
  /// with some successor in S, in one kernel call (`within` over unprimed
  /// variables; the default keeps every predecessor).
  [[nodiscard]] BddRef pre_image(Bdd states, Bdd within = kBddTrue) const;

  /// { x' | exists x. S(x) & T(x, x') } — states with some predecessor in S,
  /// returned over unprimed variables.
  [[nodiscard]] BddRef post_image(Bdd states) const;

  /// Least fixpoint of I | post_image(.), computed once, cached and
  /// system-rooted.  A partition of several parts is chained: within one
  /// sweep each part's image feeds the next part immediately (Ravi–Somenzi
  /// style), which collapses the long token-passing diameters of the ring
  /// family into a handful of sweeps.  A single part iterates frontiers.
  [[nodiscard]] Bdd reachable() const;

  /// Installs a precomputed reachable set (the bdd_store loader's path:
  /// reload a saved fixpoint instead of recomputing it).
  void adopt_reachable(Bdd reach) const { reachable_ = BddRef(*mgr_, reach); }

  /// Whether reachable() has already been computed (or adopted) — lets the
  /// store persist the fixpoint without forcing its computation.
  [[nodiscard]] bool reachable_computed() const noexcept {
    return reachable_.has_value();
  }

  /// All (PropId, characteristic function) pairs, sorted by PropId.
  [[nodiscard]] std::span<const std::pair<kripke::PropId, BddRef>> props()
      const noexcept {
    return props_;
  }

  /// Exact number of states in a set-BDD over unprimed variables (primed
  /// variables must not occur in its support).
  [[nodiscard]] SatCount count_states(Bdd set) const;

  /// Exact reachable-state count.
  [[nodiscard]] SatCount num_states() const { return count_states(reachable()); }

  /// Characteristic function of a proposition; nullopt when the system
  /// carries no function for it.
  [[nodiscard]] std::optional<Bdd> prop_states(kripke::PropId p) const;

  [[nodiscard]] const kripke::PropRegistryPtr& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] std::span<const std::uint32_t> index_set() const noexcept {
    return index_set_;
  }

  /// Deep cross-structure audit (the system-level counterpart of
  /// BddManager::audit): supports lie inside the declared variable sets
  /// (parts over the interleaved pairs, initial/props/reachable over
  /// unprimed variables only), every (2v, 2v+1) pair sits on adjacent
  /// levels with 2v on top (the layout the image kernels read), and — once
  /// computed, and with the layout intact — reachable() contains the
  /// initial states and is closed under post_image.
  [[nodiscard]] BddManager::AuditReport audit() const;

  /// Throws Error listing every failure when audit() fails.  The ICTL_AUDIT
  /// build calls this at construction and after each reachable() fixpoint.
  void assert_audit(const char* where = "audit") const;

 private:
  friend struct AuditInjector;  // tests/symbolic/audit_test.cpp: seeds
                                // corruption to prove each check fires
  std::shared_ptr<BddManager> mgr_;
  std::uint32_t num_state_vars_;
  BddRef initial_;
  std::vector<BddRef> parts_;
  kripke::PropRegistryPtr registry_;
  std::vector<std::pair<kripke::PropId, BddRef>> props_;  // sorted by PropId
  std::vector<std::uint32_t> index_set_;
  mutable std::optional<BddRef> monolithic_;
  mutable std::optional<BddRef> reachable_;
};

/// Generic bridge from the explicit engine: encodes an explicit structure
/// with ceil(log2 n) binary state variables (state s = the bits of its
/// StateId), the transition relation as a disjunction of transition
/// minterms, and every used proposition from its label column.  This makes
/// ANY explicit structure (stars, free products, random graphs) checkable
/// by the symbolic engine — the differential-testing workhorse.  The
/// result carries a single-partition (monolithic) relation; the ring
/// family's direct encoding is where the partitioned path earns its keep.
[[nodiscard]] TransitionSystem from_structure(const kripke::Structure& m,
                                              std::shared_ptr<BddManager> mgr = nullptr);

/// The state-id minterm used by from_structure (exposed for tests): the
/// conjunction over all k state vars of x_v or !x_v per the bits of `s`.
/// Returns an UNROOTED handle — run under a protect_scope (or on a manager
/// with neither auto-GC nor dynamic reordering armed) and root what must
/// survive.
[[nodiscard]] Bdd state_minterm(BddManager& mgr, std::uint32_t num_state_vars,
                                kripke::StateId s, bool primed);

}  // namespace ictl::symbolic
