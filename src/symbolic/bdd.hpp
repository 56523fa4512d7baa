// ictl-lint: allow-file(raw-bdd-member) — the manager and BddRef ARE the
// implementation of the handle discipline tools/ictl_lint enforces; their
// node/cache/queue tables legitimately store raw handles.
//
// A small self-contained BDD (reduced ordered binary decision diagram)
// manager — the third engine's substrate.  No external dependencies: nodes
// are hash-consed through per-variable unique subtables so structural
// equality is pointer (index) equality, and the Shannon-expansion operators
// run through a lossy 2-way set-associative computed-table cache with aging.
//
// Design notes:
//   * Node handles are dense 32-bit indices (`Bdd`); 0 and 1 are the
//     terminals.  Handle slots are never reused, but a node's LIFETIME is
//     scoped: public operations return an RAII `BddRef` that holds an
//     external root reference, and a node with no external reference and no
//     live parent is dead — garbage collection (and reordering) retires
//     dead nodes from the unique tables, after which their handles are
//     inert zombies.  Hold a BddRef (or a protect_scope across a builder
//     chain) for as long as a function must stay valid.
//   * The variable order is DYNAMIC: a var <-> level indirection
//     (level_of_var / var_at_level) separates a variable's identity from
//     its position, and Rudell-style sifting (reorder_now, or automatically
//     through enable_dynamic_reordering once the node table crosses a
//     growth threshold) moves variables to locally optimal levels under a
//     max-growth bound.  Reordering works by in-place adjacent-level swaps
//     on the unique subtables: a swapped node is REWRITTEN in place, so
//     every LIVE handle keeps denoting the same boolean function across any
//     reorder — clients never re-translate.  The unprimed/primed
//     interleaving used by symbolic::TransitionSystem survives because
//     sifting moves (2k, 2k+1) variable pairs as atomic groups
//     (ReorderOptions::group_pairs).
//   * Liveness is tracked by internal reference counts (live parents) plus
//     an external root count driven by BddRef / protect / release; the
//     per-level live counts drive the sifting objective, so sifting sees
//     the TRUE live set, not every result ever returned.  Dead nodes stay
//     allocated (handles are dense, never reused) and are revived
//     transparently on a unique-table hit until garbage_collect() or a
//     reorder pass retires them.
//   * The computed cache is invalidated epoch-style in one centralized
//     helper whenever the order changes or a sweep retires nodes: a retired
//     handle must never come back out of a cache.
//   * Quantification: `exists`/`forall` take a positive cube (conjunction
//     of variables).  The image workhorses, pair_pre_image and
//     pair_post_image, instead quantify by variable parity over the (2k,
//     2k+1) pair layout and fold the prime/unprime renaming into the same
//     recursion (Sylvan's relprev/relnext), so no primed copy of a set is
//     ever built.
//
// Persistence: symbolic/bdd_store.hpp serializes a manager's variable
// order, live nodes, and named roots to a versioned, checksummed binary
// stream and reloads them into a fresh manager.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace ictl::obs {
class Registry;  // obs/obs.hpp — publish_stats bridges into the registry
}

namespace ictl::symbolic {

/// Handle to a BDD node owned by a BddManager.
using Bdd = std::uint32_t;

constexpr Bdd kBddFalse = 0;
constexpr Bdd kBddTrue = 1;

class BddManager;
class BddRef;
class ProtectScope;

/// An exact satisfying-assignment count: value = (hi * 2^64 + lo) * 2^exponent
/// with the 128-bit mantissa normalized odd (or zero with exponent 0), so
/// equal counts have equal representations.  Covers every count whose odd
/// part fits 128 bits — far past the 2^53 limit where the double-returning
/// sat_count starts silently rounding; addition throws Error on mantissa
/// overflow rather than drifting.
struct SatCount {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::int32_t exponent = 0;

  /// value * 2^exp, normalized.
  [[nodiscard]] static SatCount make(std::uint64_t value, std::int32_t exp = 0);

  [[nodiscard]] bool is_zero() const noexcept { return hi == 0 && lo == 0; }
  /// Nearest double (rounds past 2^53 — the lossy view, for display only).
  [[nodiscard]] double to_double() const;
  /// Exact decimal integer rendering; requires exponent >= 0.
  [[nodiscard]] std::string to_decimal_string() const;

  /// Exact sum; throws Error when the result's odd part exceeds 128 bits.
  SatCount& operator+=(const SatCount& other);
  friend SatCount operator+(SatCount a, const SatCount& b) { return a += b; }
  friend bool operator==(const SatCount&, const SatCount&) = default;
};

class BddManager {
 public:
  /// A manager over `num_vars` boolean variables (more may be appended with
  /// new_var).  `cache_log2` sizes the computed-table cache at 2^cache_log2
  /// entries (2-way set-associative with aging, lossy — bounded memory
  /// however long a run).
  explicit BddManager(std::uint32_t num_vars = 0, std::uint32_t cache_log2 = 18);

  /// Appends a variable at the bottom of the order; returns its index.
  std::uint32_t new_var();

  [[nodiscard]] std::uint32_t num_vars() const noexcept { return num_vars_; }

  // ---- Variable order ------------------------------------------------------

  [[nodiscard]] std::uint32_t level_of_var(std::uint32_t v) const;
  [[nodiscard]] std::uint32_t var_at_level(std::uint32_t l) const;
  /// The current order, top level first (a copy of level -> var).
  [[nodiscard]] std::vector<std::uint32_t> current_order() const { return level2var_; }

  /// Installs an initial order (level -> var permutation) on a pristine
  /// manager (no nodes built yet).  For orders on a populated manager, use
  /// swap_adjacent_levels / reorder_now instead.
  void set_initial_order(const std::vector<std::uint32_t>& level2var);

  // ---- Construction --------------------------------------------------------

  /// The BDD of variable `v` / its negation.
  [[nodiscard]] BddRef var(std::uint32_t v);
  [[nodiscard]] BddRef nvar(std::uint32_t v);

  /// Low-level hash-consed node constructor: the unique reduced node
  /// testing `v` with the given cofactors.  `v`'s level must lie above both
  /// children's levels (asserted) — callers building constraint chains
  /// bottom-up in level order (see ring_encoding.cpp) get linear-time
  /// construction with no ITE recursion and no cache pressure.  The result
  /// carries NO root reference; run the whole chain under a protect_scope
  /// (which defers garbage collection and reordering) and root the final
  /// chain head in a BddRef before the scope exits.
  [[nodiscard]] Bdd make_node(std::uint32_t v, Bdd low, Bdd high);

  // ---- Boolean operators (all reduce to ITE) -------------------------------
  [[nodiscard]] BddRef ite(Bdd f, Bdd g, Bdd h);
  [[nodiscard]] BddRef bdd_not(Bdd f);
  [[nodiscard]] BddRef bdd_and(Bdd f, Bdd g);
  [[nodiscard]] BddRef bdd_or(Bdd f, Bdd g);
  [[nodiscard]] BddRef bdd_xor(Bdd f, Bdd g);
  [[nodiscard]] BddRef bdd_implies(Bdd f, Bdd g);
  [[nodiscard]] BddRef bdd_iff(Bdd f, Bdd g);
  /// f & !g.
  [[nodiscard]] BddRef bdd_diff(Bdd f, Bdd g);

  // ---- Quantification ------------------------------------------------------

  /// The positive cube v_0 & v_1 & ... for a set of variables (any order).
  [[nodiscard]] BddRef cube(const std::vector<std::uint32_t>& vars);

  /// Existential / universal quantification over the variables of `cube`.
  [[nodiscard]] BddRef exists(Bdd f, Bdd cube);
  [[nodiscard]] BddRef forall(Bdd f, Bdd cube);

  // ---- Pair images ---------------------------------------------------------
  //
  // Relational products over the (2k, 2k+1) pair layout: even variable 2k
  // is a current-state bit x_k, odd variable 2k+1 its next-state partner
  // x'_k, and each pair sits on adjacent levels, 2k directly above 2k+1
  // (TransitionSystem's interleaving; group-sifting keeps it).  `relation`
  // may mention both halves; `states` and `care` only even variables.

  /// care(x) & exists x'. relation(x, x') & states(x') — `states` is given
  /// over x and each of its nodes is read at its primed partner's level, so
  /// no primed copy is built.  Odd levels are quantified (stopping as soon
  /// as the disjunction covers `care`); even levels cofactor `care`, so
  /// predecessors outside it are never explored.
  [[nodiscard]] BddRef pair_pre_image(Bdd care, Bdd relation, Bdd states);

  /// exists x. relation(x, x') & states(x), with each surviving x'_k
  /// emitted as x_k: the successor set comes back over even variables.
  [[nodiscard]] BddRef pair_post_image(Bdd relation, Bdd states);

  // ---- Liveness ------------------------------------------------------------

  /// Adds an external root reference to f (transitively reviving its
  /// cofactors if it was dead).  protect/release are the counted primitives
  /// BddRef drives; prefer holding a BddRef.  Hard error (throws Error in
  /// every build type) on a handle already retired by garbage collection or
  /// reordering — reviving a retired slot would corrupt the unique table.
  void protect(Bdd f);

  /// Drops one external root reference added by protect().
  void release(Bdd f) noexcept;

  /// External root references currently held on f (0 for terminals).
  [[nodiscard]] std::uint32_t external_refs(Bdd f) const;

  /// Opens a protection scope: while any scope is alive, garbage collection
  /// and growth-triggered reordering are deferred, so raw intermediate
  /// handles (make_node chains, batched operator results) stay valid.
  /// Deferred work runs at the end of the first public operation after the
  /// last scope closes.  Root anything that must outlive the scope in a
  /// BddRef before it exits.
  [[nodiscard]] ProtectScope protect_scope();

  /// Mark-and-sweep over the node table: retires every dead node (no
  /// external reference, no live parent) from the unique subtables, shrinks
  /// subtable bucket arrays that emptied out, and epoch-invalidates the
  /// computed cache so no retired handle can come back out of it.  Returns
  /// the number of nodes retired this sweep.  Inside a protect_scope (or a
  /// reorder pass) the sweep is deferred: it records a pending request,
  /// returns 0, and runs when the scope closes.
  std::size_t garbage_collect();

  /// Arms automatic garbage collection: after a public operation, when the
  /// allocations since the last sweep exceed live_nodes() + slack, a sweep
  /// runs (never mid-recursion, never inside a protect_scope).
  void enable_auto_gc(std::size_t slack = 4096);

  /// Nodes currently live: reachable from externally referenced roots.  The
  /// quantity sifting minimizes, and the node set save() persists.
  [[nodiscard]] std::size_t live_nodes() const noexcept;

  // ---- Inspection ----------------------------------------------------------

  /// Evaluates f under a total assignment (indexed by variable).
  [[nodiscard]] bool eval(Bdd f, const std::vector<bool>& assignment) const;

  /// Number of satisfying assignments over all num_vars() variables, as a
  /// double (exact for the power-of-two-times-small-integer counts the state
  /// sets here produce; 2^53-limited in general — use sat_count_exact when
  /// sums of set counts may carry wide odd parts).
  [[nodiscard]] double sat_count(Bdd f) const;

  /// Exact satisfying-assignment count over all num_vars() variables as an
  /// exponent-tracked 128-bit mantissa; throws Error if the count's odd
  /// part exceeds 128 bits.
  [[nodiscard]] SatCount sat_count_exact(Bdd f) const;

  /// Nodes reachable from f (terminals excluded); multi-root overload
  /// counts shared nodes once.
  [[nodiscard]] std::size_t dag_size(Bdd f) const;
  [[nodiscard]] std::size_t dag_size(const std::vector<Bdd>& roots) const;

  /// Variables occurring in f, ascending by variable index.
  [[nodiscard]] std::vector<std::uint32_t> support_vars(Bdd f) const;

  /// Total nodes ever created (terminals included; dead nodes linger).
  [[nodiscard]] std::size_t num_nodes() const noexcept { return nodes_.size(); }

  /// True when f has been retired (unlinked from the unique tables) by
  /// garbage collection or reordering: the handle is an inert zombie.
  [[nodiscard]] bool is_retired(Bdd f) const;

  struct Stats {
    std::size_t unique_hits = 0;          ///< mk() found an existing node
    std::size_t unique_misses = 0;        ///< mk() created a node
    std::size_t cache_hits = 0;           ///< computed-table hit
    std::size_t cache_misses = 0;         ///< computed-table miss
    std::size_t cache_evictions = 0;      ///< store displaced a valid entry
    std::size_t cache_invalidations = 0;  ///< epoch bumps (reorders + sweeps)
    std::size_t reorder_hook_calls = 0;   ///< growth-trigger firings
    std::size_t sift_passes = 0;          ///< reorder_now invocations that ran
    std::size_t sift_swaps = 0;           ///< adjacent-level swaps performed
    std::size_t sift_rewrites = 0;        ///< nodes rewritten in place by swaps
    std::size_t peak_nodes = 0;           ///< high-water node count
    std::size_t gc_runs = 0;              ///< completed garbage_collect sweeps
    std::size_t gc_retired = 0;           ///< nodes retired across all sweeps
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Mirrors stats() plus table gauges (live/peak nodes) into `registry`
  /// under "bdd/" — the unified-export bridge (obs::Registry::to_json).
  void publish_stats(obs::Registry& registry) const;

  // ---- Dynamic reordering --------------------------------------------------

  struct ReorderOptions {
    /// Abort a sift direction once the table grows past max_growth times
    /// its size at the start of the variable's sift.
    double max_growth;
    /// Sift (2k, 2k+1) variable pairs as atomic blocks — REQUIRED whenever
    /// the manager carries a TransitionSystem's unprimed/primed interleaving:
    /// the pair-image kernels read a node of 2k at the level of 2k+1, which
    /// is only sound while every pair stays adjacent (TransitionSystem::audit
    /// checks it).  Needs an even variable count and pairwise-adjacent
    /// levels.
    bool group_pairs;
    /// Stop the pass once this many node rewrites have been spent (the
    /// CUDD siftMaxSwap analogue): blocks are visited most-populous first,
    /// so a budgeted pass fixes the worst offenders and returns instead of
    /// dragging every variable across every level of a large table.
    /// 0 = automatic (16x the live count); SIZE_MAX = unbounded.
    std::size_t rewrite_budget;
    // Constructor instead of member initializers: gcc rejects NSDMIs of a
    // nested class in default arguments of the enclosing class's methods.
    constexpr explicit ReorderOptions(double growth = 1.2, bool pairs = true,
                                      std::size_t budget = 0)
        : max_growth(growth), group_pairs(pairs), rewrite_budget(budget) {}
  };

  /// One full sifting pass, now: every variable (or pair block) is sifted
  /// to its locally optimal level under the growth bound, most populous
  /// block first.  Live handles keep their functions; dead nodes are
  /// retired.  Returns live_nodes().
  std::size_t reorder_now(const ReorderOptions& options = ReorderOptions());

  /// Turns growth-triggered sifting on: reorder_now(options) runs whenever
  /// the node count first crosses `threshold`, which then doubles.  The
  /// crossing is detected during node creation but the sift runs only when
  /// the triggering public operation returns — never mid-recursion, so it
  /// cannot corrupt an in-flight ITE.  Calling again replaces the options
  /// and resets the threshold.
  void enable_dynamic_reordering(std::size_t threshold = std::size_t{1} << 14,
                                 const ReorderOptions& options = ReorderOptions());

  /// Swaps the variables at `level` and `level + 1` in place (the sifting
  /// primitive, exposed for deterministic order control and tests).  Every
  /// handle keeps its function; caches are invalidated.
  void swap_adjacent_levels(std::uint32_t level);

  [[nodiscard]] std::uint32_t node_var(Bdd f) const;
  [[nodiscard]] Bdd node_low(Bdd f) const;
  [[nodiscard]] Bdd node_high(Bdd f) const;
  [[nodiscard]] static bool is_terminal(Bdd f) noexcept { return f <= kBddTrue; }

  // ---- Deep audits ---------------------------------------------------------

  /// Audit tiers, cumulative: each level runs every check below it.
  enum class AuditLevel : std::uint32_t {
    /// Order invariant, reducedness, global canonicity, unique-subtable
    /// membership, live-linkage closure (no live node points at a retired
    /// one), order maps mutually inverse.
    kStructure = 0,
    /// Reference-count recount from the externally referenced roots PLUS the
    /// deferred-death queue (queued zombies still hold their cones' counts),
    /// live-node and per-variable live totals, queue/flag coherence,
    /// retired-implies-unreferenced.
    kLiveness = 1,
    /// Computed-table epoch coherence: no current-epoch entry references a
    /// retired handle or carries an epoch from the future (which would
    /// spontaneously validate after an invalidation).
    kCaches = 2,
    /// SatCount consistency on every externally rooted function:
    /// normalization (odd mantissa, zero => exponent 0, exponent >= 0),
    /// exact-vs-double agreement, brute-force evaluation cross-check on
    /// small managers.
    kFull = 3,
  };

  /// Everything a deep audit found wrong, one line per violated invariant.
  struct AuditReport {
    std::vector<std::string> failures;
    [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
    /// All failures joined by newlines (empty when ok()).
    [[nodiscard]] std::string to_string() const;
  };

  /// Deep cross-structure audit up to `level` (see AuditLevel).  Truly
  /// const — it does NOT settle the deferred-death queue: the liveness
  /// recount treats queued zombies as roots, which is exactly the state
  /// their cones' counts still reflect.
  /// O(n log n) from the canonicity map.
  [[nodiscard]] AuditReport audit(AuditLevel level = AuditLevel::kFull) const;

  /// Throws Error listing every failure when audit(level) fails.  The
  /// ICTL_AUDIT build calls this automatically at GC, reorder, and
  /// store/load epochs; `where` names the epoch in the error text.
  void assert_audit(AuditLevel level = AuditLevel::kFull,
                    const char* where = "audit") const;

 private:
  friend class ProtectScope;
  friend struct AuditInjector;  // tests/symbolic/audit_test.cpp: seeds
                                // corruption to prove each tier fires

  struct Node {
    std::uint32_t var;  // kTerminalVar for the two terminals
    Bdd low;
    Bdd high;
    Bdd next;  // unique-subtable chain link
  };

  struct SubTable {
    std::vector<Bdd> buckets;  // heads of next-chains; power-of-two size
    std::size_t count = 0;
  };

  static constexpr std::uint32_t kTerminalVar = 0xffffffffu;
  static constexpr std::uint32_t kTerminalLevel = 0xffffffffu;

  [[nodiscard]] std::uint32_t level(Bdd f) const {
    const std::uint32_t v = nodes_[f].var;
    return v == kTerminalVar ? kTerminalLevel : var2level_[v];
  }

  /// Hash-consing constructor: the unique node (var, low, high), reduced.
  Bdd mk(std::uint32_t var, Bdd low, Bdd high);

  void insert_unique(std::uint32_t var, Bdd id);
  void grow_subtable(SubTable& table);
  void rehash_subtable(SubTable& table, std::size_t new_buckets);

  /// Invoked at the end of every public operation (after the result has
  /// been rooted): runs the growth-triggered sift if mk() flagged a
  /// threshold crossing, then any pending garbage collection.
  void run_deferred_maintenance();
  void fire_pending_reorder();

  /// Graceful degradation under an installed ResourceBudget node cap: when
  /// the live set is over the cap, escalate GC -> forced sifting -> only
  /// then throw BudgetExceeded{kNodes}.  Runs at the deferred-maintenance
  /// point (never mid-recursion, never inside a protect scope), so a throw
  /// unwinds across rooted results only and the manager stays reusable.
  void enforce_node_budget();

  // Liveness bookkeeping (see the header comment).
  [[nodiscard]] bool is_live(Bdd f) const {
    return ext_ref_[f] != 0 || ref_[f] > 0;
  }
  void make_live_ref(Bdd f);  ///< a live parent now references f
  void drop_ref(Bdd f);       ///< a live parent dropped its reference

  /// Processes the deferred-death queue: every root release() queues its
  /// node instead of tearing the cone's reference counts down on the spot
  /// (fixpoint loops release and re-root near-identical cones every
  /// iteration — eager teardown made each public op pay two O(cone) walks).
  /// A queued "zombie" keeps its counts, so re-rooting it is an O(1) flag
  /// clear; the walks run here, once, at the points that need exact
  /// liveness: sweeps, reordering, live_nodes().
  void flush_dead_queue() noexcept;

  /// Centralized cache invalidation: bumps the computed-table epoch — the
  /// single path every order-changing or node-retiring operation goes
  /// through.
  void invalidate_operation_caches();

  // Sifting + GC internals.
  /// Unlinks every dead node from the unique subtables (they stay allocated
  /// — handles are dense — but can never be found or revived again).  The
  /// sweep half of garbage_collect(), also run between sift blocks once the
  /// zombie pile outgrows the live table: swaps must rewrite dead nodes too
  /// (any live handle may still reach them), and without retirement each
  /// rewrite mints more dead children until the pile compounds
  /// exponentially across a pass.  Safe exactly because dead nodes are
  /// closed under linkage (no linked node references a dead one after the
  /// sweep) and the computed caches are epoch-invalidated before anyone can
  /// look a retired handle up again.
  std::size_t collect_dead_nodes();
  void swap_levels_internal(std::uint32_t lvl);
  void exchange_blocks(std::uint32_t pos, std::uint32_t block_size);
  void sift_block(std::uint32_t top_var, std::uint32_t block_size,
                  std::uint32_t num_blocks, double max_growth);

  // Per-tier audit passes (audit() composes them; AuditInjector's tests
  // drive audit_satcount directly with hand-corrupted counts).
  void audit_structure(AuditReport& report) const;
  void audit_liveness(AuditReport& report) const;
  void audit_caches(AuditReport& report) const;
  void audit_counts(AuditReport& report) const;
  static void audit_satcount(const SatCount& count, const std::string& what,
                             AuditReport& report);

  Bdd ite_rec(Bdd f, Bdd g, Bdd h);
  Bdd exists_rec(Bdd f, Bdd cube);
  /// The level a state-set node is read at by the pair kernels: that of
  /// its (even) variable's primed partner.
  [[nodiscard]] std::uint32_t primed_level(Bdd states) const;
  Bdd pre_image_rec(Bdd care, Bdd relation, Bdd states);
  Bdd post_image_rec(Bdd relation, Bdd states);
  double sat_count_rec(Bdd f, std::vector<double>& memo) const;
  SatCount sat_count_exact_rec(Bdd f, std::vector<SatCount>& memo,
                               std::vector<char>& seen) const;

  // Computed-table cache: 2-way set-associative, keyed (op, a, b, c), with
  // epoch-stamped entries (epoch mismatch == invalid) and last-use aging.
  enum class Op : std::uint32_t { kNone = 0, kIte, kExists, kPreImage, kPostImage };
  struct CacheEntry {
    Op op = Op::kNone;
    Bdd a = 0, b = 0, c = 0;
    Bdd result = 0;
    std::uint32_t epoch = 0;  // valid only when == cache_epoch_
    std::uint32_t used = 0;   // aging tick of the last hit/store
  };
  [[nodiscard]] std::size_t cache_set(Op op, Bdd a, Bdd b, Bdd c) const;
  bool cache_lookup(Op op, Bdd a, Bdd b, Bdd c, Bdd& out);
  void cache_store(Op op, Bdd a, Bdd b, Bdd c, Bdd result);

  std::uint32_t num_vars_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> ref_;       // live-parent reference counts
  std::vector<std::uint32_t> ext_ref_;   // external root references (BddRef)
  std::vector<std::uint8_t> retired_;    // unlinked zombie (see collect_dead_nodes)
  std::vector<std::uint8_t> queued_dead_;  // released root awaiting flush
  std::vector<Bdd> dead_queue_;            // ids with queued_dead_ set
  std::size_t queued_dead_count_ = 0;      // nodes with queued_dead_ == 1
  std::size_t nodes_at_last_collect_ = 0;
  std::vector<SubTable> subtables_;      // unique table, one per variable
  std::vector<std::uint32_t> var2level_;
  std::vector<std::uint32_t> level2var_;
  std::vector<std::size_t> var_live_count_;  // live nodes labeled each var
  std::size_t live_nodes_ = 0;

  std::vector<CacheEntry> cache_;
  std::uint32_t cache_set_mask_;
  std::uint32_t cache_epoch_ = 1;
  std::uint32_t cache_tick_ = 0;

  Stats stats_;
  std::optional<ReorderOptions> dynamic_reordering_;  // set once sifting is armed
  std::size_t reorder_threshold_ = 0;
  bool reorder_pending_ = false;
  bool in_reorder_ = false;

  // GC policy state (see garbage_collect / enable_auto_gc).
  bool gc_enabled_ = false;
  bool gc_pending_ = false;
  std::size_t gc_slack_ = 4096;
  std::uint32_t protect_scope_depth_ = 0;

  // Scratch buffers for swap_levels_internal (no allocation per swap).
  std::vector<Bdd> swap_movers_;
  std::vector<Bdd> swap_keepers_;
};

/// RAII external root reference to a BDD node.  Ownership rules:
///   * every public BddManager operation returns one; hold it (or copy it
///     into a longer-lived BddRef) for as long as the function must survive
///     garbage collection and reordering;
///   * copying adds a root reference, moving transfers it, destruction
///     drops it — a node whose last BddRef dies becomes collectible;
///   * a BddRef converts implicitly to the raw `Bdd` handle for use as an
///     operand; a raw handle confers no ownership;
///   * a BddRef must not outlive its manager.
class BddRef {
 public:
  BddRef() noexcept = default;
  BddRef(BddManager& mgr, Bdd node);
  BddRef(const BddRef& other);
  BddRef(BddRef&& other) noexcept : mgr_(other.mgr_), node_(other.node_) {
    other.mgr_ = nullptr;
    other.node_ = kBddFalse;
  }
  BddRef& operator=(const BddRef& other);
  BddRef& operator=(BddRef&& other) noexcept;
  ~BddRef();

  /// The raw handle (kBddFalse for a default-constructed ref).
  [[nodiscard]] Bdd get() const noexcept { return node_; }
  // NOLINTNEXTLINE(google-explicit-constructor): handles flow into operands.
  operator Bdd() const noexcept { return node_; }
  [[nodiscard]] BddManager* manager() const noexcept { return mgr_; }

  /// Drops the reference (if any) and returns to the default state.
  void reset() noexcept;

 private:
  BddManager* mgr_ = nullptr;
  Bdd node_ = kBddFalse;
};

/// RAII protection scope (see BddManager::protect_scope): defers garbage
/// collection and growth-triggered reordering while alive.  Scopes nest.
class ProtectScope {
 public:
  explicit ProtectScope(BddManager& mgr) : mgr_(mgr) {
    ++mgr_.protect_scope_depth_;
  }
  ~ProtectScope() { --mgr_.protect_scope_depth_; }
  ProtectScope(const ProtectScope&) = delete;
  ProtectScope& operator=(const ProtectScope&) = delete;

 private:
  BddManager& mgr_;
};

inline ProtectScope BddManager::protect_scope() { return ProtectScope(*this); }

inline BddRef::BddRef(BddManager& mgr, Bdd node) : mgr_(&mgr), node_(node) {
  mgr_->protect(node_);
}

inline BddRef::BddRef(const BddRef& other) : mgr_(other.mgr_), node_(other.node_) {
  if (mgr_ != nullptr) mgr_->protect(node_);
}

inline BddRef& BddRef::operator=(const BddRef& other) {
  if (this != &other) {
    // Acquire before releasing: self-aliasing node handles stay live.
    if (other.mgr_ != nullptr) other.mgr_->protect(other.node_);
    if (mgr_ != nullptr) mgr_->release(node_);
    mgr_ = other.mgr_;
    node_ = other.node_;
  }
  return *this;
}

inline BddRef& BddRef::operator=(BddRef&& other) noexcept {
  if (this != &other) {
    if (mgr_ != nullptr) mgr_->release(node_);
    mgr_ = other.mgr_;
    node_ = other.node_;
    other.mgr_ = nullptr;
    other.node_ = kBddFalse;
  }
  return *this;
}

inline BddRef::~BddRef() {
  if (mgr_ != nullptr) mgr_->release(node_);
}

inline void BddRef::reset() noexcept {
  if (mgr_ != nullptr) mgr_->release(node_);
  mgr_ = nullptr;
  node_ = kBddFalse;
}

}  // namespace ictl::symbolic
