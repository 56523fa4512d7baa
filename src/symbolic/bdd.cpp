#include "symbolic/bdd.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <tuple>

#include "obs/obs.hpp"
#include "rt/budget.hpp"
#include "rt/failpoint.hpp"

namespace ictl::symbolic {

namespace {

constexpr Bdd kNoNode = 0xffffffffu;

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer — cheap, well-distributed for small integer keys.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t pair_hash(Bdd low, Bdd high) {
  return mix((static_cast<std::uint64_t>(low) << 32) ^ high);
}

constexpr const char* kSatCountOverflow =
    "SatCount: sum overflows the 128-bit mantissa";

/// Shifts the two-limb mantissa left by d bits; throws when set bits would
/// fall off the top.  (Two u64 limbs instead of __int128: -Wpedantic.)
void shift_left_128(std::uint64_t& hi, std::uint64_t& lo, std::int64_t d) {
  if ((hi == 0 && lo == 0) || d == 0) return;
  support::require<Error>(d < 128, kSatCountOverflow);
  if (d >= 64) {
    support::require<Error>(
        hi == 0 && (d == 64 || (lo >> (128 - d)) == 0), kSatCountOverflow);
    hi = d == 64 ? lo : lo << (d - 64);
    lo = 0;
  } else {
    support::require<Error>((hi >> (64 - d)) == 0, kSatCountOverflow);
    hi = (hi << d) | (lo >> (64 - d));
    lo <<= d;
  }
}

/// Restores the normal form: mantissa odd (trailing zeros folded into the
/// exponent), zero represented as {0, 0, 0}.
void normalize(SatCount& c) {
  if (c.hi == 0 && c.lo == 0) {
    c.exponent = 0;
    return;
  }
  int tz = c.lo == 0 ? 64 + std::countr_zero(c.hi) : std::countr_zero(c.lo);
  c.exponent += tz;
  if (tz >= 64) {
    c.lo = c.hi;
    c.hi = 0;
    tz -= 64;
  }
  if (tz > 0) {
    c.lo = (c.lo >> tz) | (c.hi << (64 - tz));
    c.hi >>= tz;
  }
}

}  // namespace

// ---- SatCount ---------------------------------------------------------------

SatCount SatCount::make(std::uint64_t value, std::int32_t exp) {
  SatCount c{0, value, exp};
  normalize(c);
  return c;
}

double SatCount::to_double() const {
  return std::ldexp(static_cast<double>(hi), exponent + 64) +
         std::ldexp(static_cast<double>(lo), exponent);
}

std::string SatCount::to_decimal_string() const {
  support::require<Error>(exponent >= 0,
                          "SatCount::to_decimal_string: negative exponent "
                          "(the count is not an integer)");
  std::vector<std::uint8_t> digits{0};  // little-endian base 10
  const auto double_and_add = [&](unsigned bit) {
    unsigned carry = bit;
    for (std::uint8_t& d : digits) {
      const unsigned v = 2u * d + carry;
      d = static_cast<std::uint8_t>(v % 10);
      carry = v / 10;
    }
    while (carry != 0) {
      digits.push_back(static_cast<std::uint8_t>(carry % 10));
      carry /= 10;
    }
  };
  for (int i = 127; i >= 0; --i)
    double_and_add(i >= 64 ? (hi >> (i - 64)) & 1u
                           : static_cast<unsigned>((lo >> i) & 1u));
  for (std::int32_t i = 0; i < exponent; ++i) double_and_add(0);
  std::string out;
  out.reserve(digits.size());
  for (auto it = digits.rbegin(); it != digits.rend(); ++it)
    out.push_back(static_cast<char>('0' + *it));
  const auto first = out.find_first_not_of('0');
  return first == std::string::npos ? "0" : out.substr(first);
}

SatCount& SatCount::operator+=(const SatCount& other) {
  if (other.is_zero()) return *this;
  if (is_zero()) {
    *this = other;
    return *this;
  }
  SatCount a = *this;
  SatCount b = other;
  if (a.exponent > b.exponent) std::swap(a, b);
  shift_left_128(b.hi, b.lo,
                 static_cast<std::int64_t>(b.exponent) - a.exponent);
  const std::uint64_t lo = a.lo + b.lo;
  const std::uint64_t carry = lo < a.lo ? 1u : 0u;
  std::uint64_t hi = a.hi + b.hi;
  bool overflow = hi < a.hi;
  hi += carry;
  overflow = overflow || (carry != 0 && hi == 0);
  support::require<Error>(!overflow, kSatCountOverflow);
  *this = SatCount{hi, lo, a.exponent};
  normalize(*this);
  return *this;
}

// ---- BddManager -------------------------------------------------------------

BddManager::BddManager(std::uint32_t num_vars, std::uint32_t cache_log2)
    : num_vars_(num_vars) {
  support::require<Error>(cache_log2 >= 4 && cache_log2 <= 28,
                          "BddManager: cache_log2 out of [4, 28]");
  nodes_.push_back({kTerminalVar, kBddFalse, kBddFalse, kNoNode});  // 0 = false
  nodes_.push_back({kTerminalVar, kBddTrue, kBddTrue, kNoNode});    // 1 = true
  ref_.assign(2, 0);
  ext_ref_.assign(2, 0);
  retired_.assign(2, 0);
  queued_dead_.assign(2, 0);
  stats_.peak_nodes = nodes_.size();
  subtables_.resize(num_vars_);
  for (SubTable& t : subtables_) t.buckets.assign(16, kNoNode);
  var2level_.resize(num_vars_);
  level2var_.resize(num_vars_);
  std::iota(var2level_.begin(), var2level_.end(), 0u);
  std::iota(level2var_.begin(), level2var_.end(), 0u);
  var_live_count_.assign(num_vars_, 0);
  cache_.assign(std::size_t{1} << cache_log2, CacheEntry{});
  cache_set_mask_ = (std::uint32_t{1} << (cache_log2 - 1)) - 1;
}

std::uint32_t BddManager::new_var() {
  const std::uint32_t v = num_vars_++;
  subtables_.emplace_back();
  subtables_.back().buckets.assign(16, kNoNode);
  var2level_.push_back(v);  // appended at the bottom of the order
  level2var_.push_back(v);
  var_live_count_.push_back(0);
  return v;
}

std::uint32_t BddManager::level_of_var(std::uint32_t v) const {
  ICTL_ASSERT(v < num_vars_);
  return var2level_[v];
}

std::uint32_t BddManager::var_at_level(std::uint32_t l) const {
  ICTL_ASSERT(l < num_vars_);
  return level2var_[l];
}

void BddManager::set_initial_order(const std::vector<std::uint32_t>& level2var) {
  support::require<Error>(nodes_.size() == 2,
                          "BddManager::set_initial_order: manager already holds nodes; "
                          "use swap_adjacent_levels / reorder_now instead");
  support::require<Error>(level2var.size() == num_vars_,
                          "BddManager::set_initial_order: order size != num_vars");
  std::vector<bool> seen(num_vars_, false);
  for (const std::uint32_t v : level2var) {
    support::require<Error>(v < num_vars_ && !seen[v],
                            "BddManager::set_initial_order: not a permutation");
    seen[v] = true;
  }
  level2var_ = level2var;
  for (std::uint32_t l = 0; l < num_vars_; ++l) var2level_[level2var_[l]] = l;
}

// ---- Liveness ---------------------------------------------------------------

void BddManager::make_live_ref(Bdd f) {
  if (is_terminal(f)) return;
  if (queued_dead_[f] != 0) {
    // A released root whose teardown is still queued: its counts (and its
    // cone's) were never torn down, so reviving is just clearing the flag.
    queued_dead_[f] = 0;
    --queued_dead_count_;
    ++ref_[f];
    return;
  }
  const bool was_dead = ref_[f] == 0 && ext_ref_[f] == 0;
  ++ref_[f];
  if (was_dead) {
    ++var_live_count_[nodes_[f].var];
    ++live_nodes_;
    make_live_ref(nodes_[f].low);
    make_live_ref(nodes_[f].high);
  }
}

void BddManager::drop_ref(Bdd f) {
  if (is_terminal(f)) return;
  ICTL_ASSERT(ref_[f] > 0);
  --ref_[f];
  if (ref_[f] == 0 && ext_ref_[f] == 0) {
    --var_live_count_[nodes_[f].var];
    --live_nodes_;
    drop_ref(nodes_[f].low);
    drop_ref(nodes_[f].high);
  }
}

void BddManager::protect(Bdd f) {
  if (is_terminal(f)) return;
  ICTL_ASSERT(f < nodes_.size());
  // Hard error in every build type: reviving a retired slot would re-root a
  // node the unique tables no longer know, breaking canonicity the next
  // time the same triple is built.
  support::require<Error>(retired_[f] == 0,
                          "BddManager::protect: handle was retired by garbage "
                          "collection or reordering; root results in a BddRef "
                          "before they can be collected");
  if (queued_dead_[f] != 0) {  // re-rooted before its teardown ran: O(1)
    queued_dead_[f] = 0;
    --queued_dead_count_;
    ++ext_ref_[f];
    return;
  }
  const bool was_dead = ext_ref_[f] == 0 && ref_[f] == 0;
  ++ext_ref_[f];
  if (was_dead) {
    ++var_live_count_[nodes_[f].var];
    ++live_nodes_;
    make_live_ref(nodes_[f].low);
    make_live_ref(nodes_[f].high);
  }
}

void BddManager::release(Bdd f) noexcept {
  if (is_terminal(f)) return;
  ICTL_ASSERT(f < nodes_.size());
  ICTL_ASSERT(ext_ref_[f] > 0);
  --ext_ref_[f];
  if (ext_ref_[f] == 0 && ref_[f] == 0) {
    // Defer the O(cone) teardown: fixpoint loops re-root a near-identical
    // cone on the very next operation, which then costs an O(1) flag clear
    // instead of a kill-walk followed by a revive-walk.
    queued_dead_[f] = 1;
    ++queued_dead_count_;
    dead_queue_.push_back(f);
    // Bound the queue so churn-heavy loops that never sweep can't grow it
    // past the node table itself.
    if (dead_queue_.size() > nodes_.size() / 4 + 1024) flush_dead_queue();
  }
}

std::uint32_t BddManager::external_refs(Bdd f) const {
  if (is_terminal(f)) return 0;
  ICTL_ASSERT(f < nodes_.size());
  return ext_ref_[f];
}

bool BddManager::is_retired(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size());
  return retired_[f] != 0;
}

// ---- Node construction ------------------------------------------------------

BddRef BddManager::var(std::uint32_t v) {
  ICTL_ASSERT(v < num_vars_);
  BddRef result(*this, mk(v, kBddFalse, kBddTrue));
  run_deferred_maintenance();
  return result;
}

BddRef BddManager::nvar(std::uint32_t v) {
  ICTL_ASSERT(v < num_vars_);
  BddRef result(*this, mk(v, kBddTrue, kBddFalse));
  run_deferred_maintenance();
  return result;
}

Bdd BddManager::make_node(std::uint32_t v, Bdd low, Bdd high) {
  ICTL_ASSERT(low < nodes_.size() && high < nodes_.size());
  return mk(v, low, high);
}

Bdd BddManager::mk(std::uint32_t v, Bdd low, Bdd high) {
  if (low == high) return low;  // reduction rule
  ICTL_ASSERT(v < num_vars_);
  ICTL_ASSERT(var2level_[v] < level(low) && var2level_[v] < level(high));
  SubTable& t = subtables_[v];
  const std::size_t slot =
      static_cast<std::size_t>(pair_hash(low, high)) & (t.buckets.size() - 1);
  for (Bdd id = t.buckets[slot]; id != kNoNode; id = nodes_[id].next) {
    const Node& n = nodes_[id];
    if (n.low == low && n.high == high) {
      ++stats_.unique_hits;
      return id;
    }
  }
  ++stats_.unique_misses;
  const Bdd id = static_cast<Bdd>(nodes_.size());
  nodes_.push_back({v, low, high, t.buckets[slot]});
  ref_.push_back(0);  // born dead; protect()/make_live_ref revive it
  ext_ref_.push_back(0);
  retired_.push_back(0);
  queued_dead_.push_back(0);
  t.buckets[slot] = id;
  if (++t.count > t.buckets.size()) grow_subtable(t);
  if (nodes_.size() > stats_.peak_nodes) stats_.peak_nodes = nodes_.size();
  // Only FLAG maintenance here — mk() runs deep inside the operator
  // recursions, where reordering or a sweep would corrupt in-flight
  // cofactors.  The public entry points run it after rooting their result.
  if (dynamic_reordering_.has_value() && !in_reorder_ &&
      nodes_.size() >= reorder_threshold_)
    reorder_pending_ = true;
  // live_nodes_ still counts queued (released-but-unflushed) roots, which
  // would let churn garbage inflate its own trigger threshold; subtract the
  // exact zombie count so the comparison sees the true live set.
  if (gc_enabled_ && !in_reorder_ &&
      nodes_.size() - nodes_at_last_collect_ >
          live_nodes_ - queued_dead_count_ + gc_slack_)
    gc_pending_ = true;
  return id;
}

void BddManager::insert_unique(std::uint32_t v, Bdd id) {
  SubTable& t = subtables_[v];
  const Node& n = nodes_[id];
  const std::size_t slot =
      static_cast<std::size_t>(pair_hash(n.low, n.high)) & (t.buckets.size() - 1);
  nodes_[id].next = t.buckets[slot];
  t.buckets[slot] = id;
  if (++t.count > t.buckets.size()) grow_subtable(t);
}

void BddManager::grow_subtable(SubTable& t) {
  ICTL_COUNT("bdd", "subtable_grows");
  rehash_subtable(t, t.buckets.size() * 2);
}

void BddManager::rehash_subtable(SubTable& t, std::size_t new_buckets) {
  std::vector<Bdd> ids;
  ids.reserve(t.count);
  for (const Bdd head : t.buckets)
    for (Bdd id = head; id != kNoNode; id = nodes_[id].next) ids.push_back(id);
  t.buckets.assign(new_buckets, kNoNode);
  for (const Bdd id : ids) {
    const Node& n = nodes_[id];
    const std::size_t slot =
        static_cast<std::size_t>(pair_hash(n.low, n.high)) & (t.buckets.size() - 1);
    nodes_[id].next = t.buckets[slot];
    t.buckets[slot] = id;
  }
}

void BddManager::run_deferred_maintenance() {
  fire_pending_reorder();
  if (gc_pending_ && !in_reorder_ && protect_scope_depth_ == 0) {
    gc_pending_ = false;
    garbage_collect();
  }
  enforce_node_budget();
}

void BddManager::enforce_node_budget() {
  rt::ResourceBudget* budget = rt::current_budget();
  if (budget == nullptr || budget->node_cap() == 0) return;
  // Inside a scope neither GC nor sifting may run; the cap is
  // re-checked at the next maintenance point outside, exactly like a
  // deferred sweep.
  if (in_reorder_ || protect_scope_depth_ > 0) return;
  const std::size_t cap = budget->node_cap();
  if (live_nodes_ - queued_dead_count_ <= cap) return;
  // Ladder step 1: reclaim garbage.
  ICTL_COUNT("bdd", "node_budget_gcs");
  garbage_collect();
  if (live_nodes_ <= cap) return;
  // Ladder step 2: forced sifting shrinks the live set itself.  Pair-group
  // when the current order keeps every (2k, 2k+1) pair adjacent (the
  // TransitionSystem interleaving sifting must preserve), else sift single
  // variables.
  ICTL_COUNT("bdd", "node_budget_sifts");
  ReorderOptions options;
  options.group_pairs = num_vars_ % 2 == 0;
  for (std::uint32_t v = 0; options.group_pairs && v < num_vars_; v += 2)
    if (var2level_[v + 1] != var2level_[v] + 1) options.group_pairs = false;
  reorder_now(options);
  if (live_nodes_ <= cap) return;
  // Ladder step 3: nothing left to shed.  The throw happens here, at the
  // maintenance point — every result of the public op that triggered it is
  // already rooted, so unwinding leaves the manager consistent.
  budget->trip(BudgetKind::kNodes, "bdd/node_cap");
}

void BddManager::fire_pending_reorder() {
  if (!reorder_pending_ || !dynamic_reordering_.has_value() || in_reorder_ ||
      protect_scope_depth_ > 0)
    return;
  reorder_pending_ = false;
  ++stats_.reorder_hook_calls;
  // Double the threshold before sifting: ops the sift itself performs may
  // re-flag, but re-fire only after genuine further growth.
  const std::size_t grown_to = nodes_.size();
  while (reorder_threshold_ <= grown_to) reorder_threshold_ *= 2;
  reorder_now(*dynamic_reordering_);
}

void BddManager::enable_dynamic_reordering(std::size_t threshold,
                                           const ReorderOptions& options) {
  // Fail fast at the misconfigured call: without this, the pair-grouping
  // requirements would only surface as a throw from whichever unrelated
  // public operation happens to cross the growth threshold later.
  if (options.group_pairs) {
    support::require<Error>(num_vars_ % 2 == 0,
                            "BddManager::enable_dynamic_reordering: pair grouping "
                            "needs an even variable count");
    for (std::uint32_t v = 0; v < num_vars_; v += 2)
      support::require<Error>(
          var2level_[v + 1] == var2level_[v] + 1,
          "BddManager::enable_dynamic_reordering: pair grouping needs each "
          "(2k, 2k+1) pair on adjacent levels (unprimed above primed)");
  }
  dynamic_reordering_ = options;
  reorder_threshold_ = threshold == 0 ? 1 : threshold;
  reorder_pending_ = false;
}

// ---- Garbage collection -----------------------------------------------------

void BddManager::enable_auto_gc(std::size_t slack) {
  gc_enabled_ = true;
  gc_slack_ = slack;
}

std::size_t BddManager::garbage_collect() {
  if (in_reorder_ || protect_scope_depth_ > 0) {
    gc_pending_ = true;  // deferred: runs when the scope closes
    return 0;
  }
  // The failpoint sits below the deferral guard and above the first
  // mutation: a throw here proves unwinding through every caller of a
  // (possibly auto-triggered) sweep leaves the manager untouched.
  ICTL_FAILPOINT("bdd/gc");
  // The span sits below the deferral guard: a deferred GC did no work and
  // must not pollute the gc_sweep timing distribution.
  ICTL_PROFILE("bdd", "gc_sweep");
  const std::size_t retired = collect_dead_nodes();
  ICTL_SPAN_ARG("retired", retired);
  ++stats_.gc_runs;
  stats_.gc_retired += retired;
  if (retired == 0) return 0;
  // Compact subtables the sweep emptied out: a bucket array sized for the
  // peak keeps costing cache misses on every mk() probe.
  for (SubTable& t : subtables_)
    if (t.buckets.size() > 16 && t.count * 4 < t.buckets.size()) {
      std::size_t target = 16;
      while (target < 2 * t.count) target *= 2;
      rehash_subtable(t, target);
    }
  // Cache entries may hold retired operands or results; a post-sweep hit on
  // one would hand out a zombie.  Epoch-invalidate — the one choke point.
  invalidate_operation_caches();
#ifdef ICTL_AUDIT
  assert_audit(AuditLevel::kFull, "garbage_collect");
#endif
  return retired;
}

// ---- Computed table ---------------------------------------------------------

std::size_t BddManager::cache_set(Op op, Bdd a, Bdd b, Bdd c) const {
  // (a, b) and (c, op) each fill a 64-bit word, and mix is a bijection, so
  // two distinct keys can share a set only through the final mixing.
  const std::uint64_t ab = (static_cast<std::uint64_t>(a) << 32) | b;
  const std::uint64_t cop =
      (static_cast<std::uint64_t>(c) << 32) | static_cast<std::uint64_t>(op);
  return (static_cast<std::size_t>(mix(ab ^ mix(cop))) & cache_set_mask_) * 2;
}

bool BddManager::cache_lookup(Op op, Bdd a, Bdd b, Bdd c, Bdd& out) {
  const std::size_t base = cache_set(op, a, b, c);
  for (std::size_t i = base; i < base + 2; ++i) {
    CacheEntry& e = cache_[i];
    if (e.epoch == cache_epoch_ && e.op == op && e.a == a && e.b == b && e.c == c) {
      ++stats_.cache_hits;
      e.used = ++cache_tick_;
      out = e.result;
      return true;
    }
  }
  ++stats_.cache_misses;
  return false;
}

void BddManager::cache_store(Op op, Bdd a, Bdd b, Bdd c, Bdd result) {
  const std::size_t base = cache_set(op, a, b, c);
  // 2-way with aging: fill an invalid way first, else evict the one whose
  // last use is older.
  std::size_t victim = base;
  if (cache_[base].epoch == cache_epoch_) {
    if (cache_[base + 1].epoch != cache_epoch_ ||
        cache_[base + 1].used < cache_[base].used)
      victim = base + 1;
  }
  if (cache_[victim].epoch == cache_epoch_ && cache_[victim].op != Op::kNone)
    ++stats_.cache_evictions;
  cache_[victim] = CacheEntry{op, a, b, c, result, cache_epoch_, ++cache_tick_};
}

void BddManager::invalidate_operation_caches() {
  // The one choke point for cache invalidation: everything keyed on node
  // identity across calls — the computed table — is epoch-invalidated here,
  // and every order-changing or node-retiring path calls this.  With scoped
  // lifetimes this is load-bearing, not defense-in-depth: a retired handle
  // must never come back out of a cache.
  ++cache_epoch_;
  ++stats_.cache_invalidations;
}

void BddManager::publish_stats(obs::Registry& registry) const {
  registry.set("bdd", "unique_hits", stats_.unique_hits);
  registry.set("bdd", "unique_misses", stats_.unique_misses);
  registry.set("bdd", "cache_hits", stats_.cache_hits);
  registry.set("bdd", "cache_misses", stats_.cache_misses);
  registry.set("bdd", "cache_evictions", stats_.cache_evictions);
  registry.set("bdd", "cache_invalidations", stats_.cache_invalidations);
  registry.set("bdd", "reorder_hook_calls", stats_.reorder_hook_calls);
  registry.set("bdd", "sift_passes", stats_.sift_passes);
  registry.set("bdd", "sift_swaps", stats_.sift_swaps);
  registry.set("bdd", "sift_rewrites", stats_.sift_rewrites);
  registry.set("bdd", "peak_nodes", stats_.peak_nodes);
  registry.set("bdd", "gc_runs", stats_.gc_runs);
  registry.set("bdd", "gc_retired", stats_.gc_retired);
  registry.set("bdd", "live_nodes", live_nodes_);
  registry.set("bdd", "total_nodes", nodes_.size());
}

// ---- ITE and the boolean operators -----------------------------------------

BddRef BddManager::ite(Bdd f, Bdd g, Bdd h) {
  ICTL_ASSERT(f < nodes_.size() && g < nodes_.size() && h < nodes_.size());
  // Root the result BEFORE any deferred reorder/sweep runs: un-rooted, it
  // would be exactly the kind of garbage those passes retire.
  BddRef result(*this, ite_rec(f, g, h));
  run_deferred_maintenance();
  return result;
}

Bdd BddManager::ite_rec(Bdd f, Bdd g, Bdd h) {
  if (f == kBddTrue) return g;
  if (f == kBddFalse) return h;
  if (g == h) return g;
  if (g == kBddTrue && h == kBddFalse) return f;

  Bdd cached;
  if (cache_lookup(Op::kIte, f, g, h, cached)) return cached;

  const std::uint32_t top = std::min({level(f), level(g), level(h)});
  const auto cofactor = [&](Bdd x, bool hi) {
    return level(x) == top ? (hi ? nodes_[x].high : nodes_[x].low) : x;
  };
  const Bdd lo = ite_rec(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  const Bdd hi = ite_rec(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  const Bdd result = mk(level2var_[top], lo, hi);
  cache_store(Op::kIte, f, g, h, result);
  return result;
}

BddRef BddManager::bdd_not(Bdd f) { return ite(f, kBddFalse, kBddTrue); }
BddRef BddManager::bdd_and(Bdd f, Bdd g) { return ite(f, g, kBddFalse); }
BddRef BddManager::bdd_or(Bdd f, Bdd g) { return ite(f, kBddTrue, g); }
BddRef BddManager::bdd_xor(Bdd f, Bdd g) { return ite(f, bdd_not(g), g); }
BddRef BddManager::bdd_implies(Bdd f, Bdd g) { return ite(f, g, kBddTrue); }
BddRef BddManager::bdd_iff(Bdd f, Bdd g) { return ite(f, g, bdd_not(g)); }
BddRef BddManager::bdd_diff(Bdd f, Bdd g) { return ite(g, kBddFalse, f); }

// ---- Quantification ---------------------------------------------------------

BddRef BddManager::cube(const std::vector<std::uint32_t>& vars) {
  std::vector<std::uint32_t> sorted = vars;
  // Bottom-up by the CURRENT order: deepest level first.
  std::sort(sorted.begin(), sorted.end(), [&](std::uint32_t a, std::uint32_t b) {
    return var2level_[a] > var2level_[b];
  });
  Bdd acc = kBddTrue;
  for (const std::uint32_t v : sorted) acc = mk(v, kBddFalse, acc);
  BddRef result(*this, acc);
  run_deferred_maintenance();
  return result;
}

BddRef BddManager::exists(Bdd f, Bdd cube) {
  ICTL_ASSERT(f < nodes_.size() && cube < nodes_.size());
  BddRef result(*this, exists_rec(f, cube));
  run_deferred_maintenance();
  return result;
}

BddRef BddManager::forall(Bdd f, Bdd cube) {
  return bdd_not(exists(bdd_not(f), cube));
}

Bdd BddManager::exists_rec(Bdd f, Bdd cube) {
  if (is_terminal(f) || cube == kBddTrue) return f;
  // Quantified variables above f's top are vacuous.
  while (cube != kBddTrue && level(cube) < level(f)) cube = nodes_[cube].high;
  if (cube == kBddTrue) return f;

  Bdd cached;
  if (cache_lookup(Op::kExists, f, cube, 0, cached)) return cached;

  const Node n = nodes_[f];  // copy: mk() below may reallocate nodes_
  Bdd result;
  if (level(cube) == var2level_[n.var]) {
    const Bdd rest = nodes_[cube].high;
    const Bdd lo = exists_rec(n.low, rest);
    // ite_rec, not the public bdd_or: no deferred maintenance may run while
    // this frame holds node handles.
    result = lo == kBddTrue ? kBddTrue
                            : ite_rec(lo, kBddTrue, exists_rec(n.high, rest));
  } else {
    result = mk(n.var, exists_rec(n.low, cube), exists_rec(n.high, cube));
  }
  cache_store(Op::kExists, f, cube, 0, result);
  return result;
}

// ---- Pair images ------------------------------------------------------------

std::uint32_t BddManager::primed_level(Bdd states) const {
  if (is_terminal(states)) return kTerminalLevel;
  const std::uint32_t v = nodes_[states].var;
  ICTL_ASSERT(v % 2 == 0 && v + 1 < num_vars_);  // a set over x, never x'
  return var2level_[v + 1];
}

BddRef BddManager::pair_pre_image(Bdd care, Bdd relation, Bdd states) {
  ICTL_ASSERT(care < nodes_.size() && relation < nodes_.size() &&
              states < nodes_.size());
  BddRef result(*this, pre_image_rec(care, relation, states));
  run_deferred_maintenance();
  return result;
}

Bdd BddManager::pre_image_rec(Bdd care, Bdd relation, Bdd states) {
  if (care == kBddFalse || relation == kBddFalse || states == kBddFalse)
    return kBddFalse;
  // exists x'. states(x') holds for any satisfiable set.
  if (relation == kBddTrue) return care;

  Bdd cached;
  if (cache_lookup(Op::kPreImage, care, relation, states, cached)) return cached;

  const std::uint32_t care_level = level(care);
  const std::uint32_t rel_level = level(relation);
  const std::uint32_t states_level = primed_level(states);
  const std::uint32_t top = std::min({care_level, rel_level, states_level});
  const auto cofactor = [&](Bdd x, std::uint32_t x_level, bool hi) {
    return x_level == top ? (hi ? nodes_[x].high : nodes_[x].low) : x;
  };
  const std::uint32_t v = level2var_[top];
  Bdd result;
  if (v % 2 != 0) {
    // A primed level: quantified.  Both disjuncts lie inside care (which
    // never tests a primed variable), so once one of them IS care the
    // disjunction is too.
    ICTL_ASSERT(care_level != top);
    const Bdd lo = pre_image_rec(care, cofactor(relation, rel_level, false),
                                 cofactor(states, states_level, false));
    if (lo == care) {
      result = care;
    } else {
      const Bdd hi = pre_image_rec(care, cofactor(relation, rel_level, true),
                                   cofactor(states, states_level, true));
      // ite_rec, not the public bdd_or: no deferred maintenance may run
      // while this frame holds node handles.
      result = hi == care ? care : ite_rec(lo, kBddTrue, hi);
    }
  } else {
    // An unprimed level (states sit only at primed levels): split care and
    // the relation; a branch outside care stops at the false terminal.
    result = mk(v,
                pre_image_rec(cofactor(care, care_level, false),
                              cofactor(relation, rel_level, false), states),
                pre_image_rec(cofactor(care, care_level, true),
                              cofactor(relation, rel_level, true), states));
  }
  cache_store(Op::kPreImage, care, relation, states, result);
  return result;
}

BddRef BddManager::pair_post_image(Bdd relation, Bdd states) {
  ICTL_ASSERT(relation < nodes_.size() && states < nodes_.size());
  BddRef result(*this, post_image_rec(relation, states));
  run_deferred_maintenance();
  return result;
}

Bdd BddManager::post_image_rec(Bdd relation, Bdd states) {
  if (relation == kBddFalse || states == kBddFalse) return kBddFalse;
  // exists x. states(x) holds for any satisfiable set.
  if (relation == kBddTrue) return kBddTrue;

  Bdd cached;
  if (cache_lookup(Op::kPostImage, relation, states, 0, cached)) return cached;

  const std::uint32_t rel_level = level(relation);
  const std::uint32_t states_level = level(states);
  const std::uint32_t top = std::min(rel_level, states_level);
  const auto cofactor = [&](Bdd x, std::uint32_t x_level, bool hi) {
    return x_level == top ? (hi ? nodes_[x].high : nodes_[x].low) : x;
  };
  const std::uint32_t v = level2var_[top];
  Bdd result;
  if (v % 2 == 0) {
    // An unprimed level: quantified.
    const Bdd lo = post_image_rec(cofactor(relation, rel_level, false),
                                  cofactor(states, states_level, false));
    result = lo == kBddTrue
                 ? kBddTrue
                 : ite_rec(lo, kBddTrue,
                           post_image_rec(cofactor(relation, rel_level, true),
                                          cofactor(states, states_level, true)));
  } else {
    // A primed level: kept, and emitted as its unprimed partner one level
    // up (mk asserts the order, catching a split pair).
    ICTL_ASSERT(states_level != top);  // a set over x, never x'
    result = mk(v - 1, post_image_rec(cofactor(relation, rel_level, false), states),
                post_image_rec(cofactor(relation, rel_level, true), states));
  }
  cache_store(Op::kPostImage, relation, states, 0, result);
  return result;
}

// ---- Reordering -------------------------------------------------------------

void BddManager::swap_adjacent_levels(std::uint32_t lvl) {
  support::require<Error>(lvl + 1 < num_vars_,
                          "BddManager::swap_adjacent_levels: level out of range");
  // The rewrite below keys its reference maintenance on is_live(): settle
  // queued deaths first so a zombie isn't rewritten as if it were dead
  // while its cone still carries its counts.
  flush_dead_queue();
  swap_levels_internal(lvl);
  invalidate_operation_caches();
#ifdef ICTL_AUDIT
  assert_audit(AuditLevel::kFull, "swap_adjacent_levels");
#endif
}

void BddManager::swap_levels_internal(std::uint32_t lvl) {
  const std::uint32_t x = level2var_[lvl];      // moves down to lvl + 1
  const std::uint32_t y = level2var_[lvl + 1];  // moves up to lvl
  ++stats_.sift_swaps;
  // Flip the maps first: the mk() calls below must already see the
  // post-swap order for their invariant checks.
  level2var_[lvl] = y;
  level2var_[lvl + 1] = x;
  var2level_[x] = lvl + 1;
  var2level_[y] = lvl;

  // Split x's nodes: those depending on y must be rewritten in place (their
  // handles must keep their functions); the rest just sink one level.
  SubTable& tx = subtables_[x];
  swap_movers_.clear();
  swap_keepers_.clear();
  for (const Bdd head : tx.buckets)
    for (Bdd id = head; id != kNoNode; id = nodes_[id].next) {
      const Node& n = nodes_[id];
      if (nodes_[n.low].var == y || nodes_[n.high].var == y)
        swap_movers_.push_back(id);
      else
        swap_keepers_.push_back(id);
    }
  if (swap_movers_.empty()) return;
  stats_.sift_rewrites += swap_movers_.size();

  std::fill(tx.buckets.begin(), tx.buckets.end(), kNoNode);
  tx.count = 0;
  for (const Bdd id : swap_keepers_) insert_unique(x, id);

  for (const Bdd f : swap_movers_) {
    const Node n = nodes_[f];  // copy: mk() below may reallocate nodes_
    const bool low_is_y = nodes_[n.low].var == y;
    const bool high_is_y = nodes_[n.high].var == y;
    // f = x ? f1 : f0 = y ? (x ? f11 : f01) : (x ? f10 : f00).
    const Bdd f00 = low_is_y ? nodes_[n.low].low : n.low;
    const Bdd f01 = low_is_y ? nodes_[n.low].high : n.low;
    const Bdd f10 = high_is_y ? nodes_[n.high].low : n.high;
    const Bdd f11 = high_is_y ? nodes_[n.high].high : n.high;
    const Bdd a = mk(x, f00, f10);  // the y = 0 cofactor
    const Bdd b = mk(x, f01, f11);  // the y = 1 cofactor
    // f depended on y (it had a y child and was reduced), so its cofactors
    // differ and the rewritten node cannot collide with a pre-existing
    // y-node: canonicity would have merged them before the swap.
    ICTL_ASSERT(a != b);
    const bool live = is_live(f);
    if (live) {
      make_live_ref(a);
      make_live_ref(b);
    }
    Node& slot = nodes_[f];  // re-take: mk() may have reallocated nodes_
    slot.var = y;
    slot.low = a;
    slot.high = b;
    insert_unique(y, f);
    if (live) {
      drop_ref(n.low);
      drop_ref(n.high);
      --var_live_count_[x];
      ++var_live_count_[y];
    }
  }
}

void BddManager::flush_dead_queue() noexcept {
  while (!dead_queue_.empty()) {
    const Bdd f = dead_queue_.back();
    dead_queue_.pop_back();
    if (queued_dead_[f] == 0) continue;  // revived since it was queued
    queued_dead_[f] = 0;
    --queued_dead_count_;
    --var_live_count_[nodes_[f].var];
    --live_nodes_;
    drop_ref(nodes_[f].low);
    drop_ref(nodes_[f].high);
  }
}

std::size_t BddManager::live_nodes() const noexcept {
  // Settling the deferred deaths only mutates bookkeeping, never the node
  // table or any handle — logically const.
  const_cast<BddManager*>(this)->flush_dead_queue();
  return live_nodes_;
}

std::size_t BddManager::collect_dead_nodes() {
  // Queued roots still hold their cones' reference counts; settle them
  // first or the sweep would retire a zombie while its children stay
  // counted as referenced.
  flush_dead_queue();
  std::size_t retired = 0;
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    SubTable& t = subtables_[v];
    for (Bdd& head : t.buckets) {
      Bdd id = head;
      head = kNoNode;
      Bdd* tail = &head;
      while (id != kNoNode) {
        const Bdd next = nodes_[id].next;
        if (is_live(id)) {
          *tail = id;
          nodes_[id].next = kNoNode;
          tail = &nodes_[id].next;
        } else {
          retired_[id] = 1;
          ++retired;
          --t.count;
        }
        id = next;
      }
    }
  }
  nodes_at_last_collect_ = nodes_.size();
  return retired;
}

void BddManager::exchange_blocks(std::uint32_t pos, std::uint32_t block_size) {
  // Exchanges the adjacent uniform blocks at positions pos and pos + 1:
  // bubble each variable of the upper block, bottom-most first, down past
  // the lower block.
  const std::uint32_t l = pos * block_size;
  for (std::uint32_t i = block_size; i >= 1; --i)
    for (std::uint32_t k = 0; k < block_size; ++k)
      swap_levels_internal(l + i - 1 + k);
}

void BddManager::sift_block(std::uint32_t top_var, std::uint32_t block_size,
                            std::uint32_t num_blocks, double max_growth) {
  ICTL_PROFILE_ARG("bdd", "sift_journey", "top_var", top_var);
  ICTL_ASSERT(var2level_[top_var] % block_size == 0);
  std::uint32_t pos = var2level_[top_var] / block_size;
  const std::size_t start_size = live_nodes_;
  const std::size_t bound =
      static_cast<std::size_t>(static_cast<double>(start_size) * max_growth) + 8;
  std::size_t best_size = start_size;
  std::uint32_t best_pos = pos;
  const std::uint32_t last = num_blocks - 1;

  // One block journey can mint zombies at every level it crosses (the old
  // position's rewrites die as the block moves on); reap them mid-journey
  // once they outnumber the live table or transient memory compounds.
  const auto maybe_collect = [&] {
    if (nodes_.size() - nodes_at_last_collect_ > live_nodes_ + 4096)
      collect_dead_nodes();
  };
  // Walk to the nearer end first (fewer swaps wasted if that direction is
  // bad), then sweep across to the other end, recording the minimum.
  const bool down_first = (last - pos) <= pos;
  for (int leg = 0; leg < 2; ++leg) {
    const bool down = (leg == 0) == down_first;
    if (down) {
      while (pos < last && live_nodes_ <= bound) {
        exchange_blocks(pos, block_size);
        ++pos;
        maybe_collect();
        if (live_nodes_ < best_size) {
          best_size = live_nodes_;
          best_pos = pos;
        }
      }
    } else {
      while (pos > 0 && live_nodes_ <= bound) {
        exchange_blocks(pos - 1, block_size);
        --pos;
        maybe_collect();
        if (live_nodes_ < best_size) {
          best_size = live_nodes_;
          best_pos = pos;
        }
      }
    }
  }
  while (pos < best_pos) {
    exchange_blocks(pos, block_size);
    ++pos;
  }
  while (pos > best_pos) {
    exchange_blocks(pos - 1, block_size);
    --pos;
  }
}

std::size_t BddManager::reorder_now(const ReorderOptions& options) {
  if (in_reorder_ || protect_scope_depth_ > 0 || num_vars_ < 2)
    return live_nodes();
  const std::uint32_t block_size = options.group_pairs ? 2u : 1u;
  if (block_size == 2) {
    support::require<Error>(
        num_vars_ % 2 == 0,
        "BddManager::reorder_now: pair grouping needs an even variable count");
    for (std::uint32_t v = 0; v < num_vars_; v += 2)
      support::require<Error>(
          var2level_[v + 1] == var2level_[v] + 1,
          "BddManager::reorder_now: pair grouping needs each (2k, 2k+1) pair on "
          "adjacent levels (unprimed above primed)");
  }
  // Above in_reorder_: a throw must not leave the flag stuck.
  ICTL_FAILPOINT("bdd/reorder");
  in_reorder_ = true;
  ICTL_PROFILE_ARG("bdd", "sift_pass", "live_nodes", live_nodes_);
  ++stats_.sift_passes;
  // Sweep before ranking: the block-population ranking and the sift's
  // size accounting must both see the true live set, zombies settled.
  collect_dead_nodes();
  const std::uint32_t num_blocks = num_vars_ / block_size;
  std::vector<std::uint32_t> ranking(num_blocks);
  std::iota(ranking.begin(), ranking.end(), 0u);
  const auto block_population = [&](std::uint32_t b) {
    std::size_t total = 0;
    for (std::uint32_t i = 0; i < block_size; ++i)
      total += var_live_count_[b * block_size + i];
    return total;
  };
  std::stable_sort(ranking.begin(), ranking.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return block_population(a) > block_population(b);
                   });
  const std::size_t budget =
      options.rewrite_budget != 0 ? options.rewrite_budget
                                  : 16 * live_nodes_ + 4096;
  const std::size_t rewrites_at_start = stats_.sift_rewrites;
  bool interrupted = false;
  for (const std::uint32_t b : ranking) {
    // Deadline/cancellation poll between block journeys.  Throwing from
    // inside a journey would strand in_reorder_ and half-moved blocks, so
    // stop placing further blocks, finish the pass bookkeeping below
    // (caches invalidated, flags reset, audit run), and only then raise
    // from the checkpoint after the epilogue.
    if (rt::interrupt_pending()) {
      interrupted = true;
      break;
    }
    sift_block(b * block_size, block_size, num_blocks, options.max_growth);
    // Swaps rewrite dead nodes alongside live ones (handles must keep
    // their functions), so every block journey grows the zombie pile;
    // retire it before it compounds into the next block's journey.
    if (nodes_.size() - nodes_at_last_collect_ > live_nodes_ + 4096)
      collect_dead_nodes();
    if (stats_.sift_rewrites - rewrites_at_start > budget) break;
  }
  in_reorder_ = false;
  reorder_pending_ = false;  // growth during the sift is not a new trigger
  gc_pending_ = false;       // the pass collected as it went
  invalidate_operation_caches();
#ifdef ICTL_AUDIT
  assert_audit(AuditLevel::kFull, "reorder_now");
#endif
  if (interrupted) rt::checkpoint("bdd/sift_pass");
  return live_nodes_;
}

// ---- Inspection -------------------------------------------------------------

bool BddManager::eval(Bdd f, const std::vector<bool>& assignment) const {
  ICTL_ASSERT(f < nodes_.size());
  while (!is_terminal(f)) {
    const Node& n = nodes_[f];
    ICTL_ASSERT(n.var < assignment.size());
    f = assignment[n.var] ? n.high : n.low;
  }
  return f == kBddTrue;
}

double BddManager::sat_count(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size());
  std::vector<double> memo(nodes_.size(), -1.0);
  // sat_count_rec counts over the variables below a node's level; scale by
  // the free variables above the root.
  const double below = sat_count_rec(f, memo);
  const std::uint32_t root_level =
      is_terminal(f) ? num_vars_ : var2level_[nodes_[f].var];
  return std::ldexp(below, static_cast<int>(root_level));
}

double BddManager::sat_count_rec(Bdd f, std::vector<double>& memo) const {
  if (f == kBddFalse) return 0.0;
  if (f == kBddTrue) return 1.0;
  if (memo[f] >= 0.0) return memo[f];
  const Node& n = nodes_[f];
  const std::uint32_t my_level = var2level_[n.var];
  const auto gap = [&](Bdd child) {
    const std::uint32_t child_level =
        is_terminal(child) ? num_vars_ : var2level_[nodes_[child].var];
    return static_cast<int>(child_level - my_level - 1);
  };
  const double result = std::ldexp(sat_count_rec(n.low, memo), gap(n.low)) +
                        std::ldexp(sat_count_rec(n.high, memo), gap(n.high));
  memo[f] = result;
  return result;
}

SatCount BddManager::sat_count_exact(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size());
  std::vector<SatCount> memo(nodes_.size());
  std::vector<char> seen(nodes_.size(), 0);
  SatCount below = sat_count_exact_rec(f, memo, seen);
  const std::uint32_t root_level =
      is_terminal(f) ? num_vars_ : var2level_[nodes_[f].var];
  if (!below.is_zero()) below.exponent += static_cast<std::int32_t>(root_level);
  return below;
}

SatCount BddManager::sat_count_exact_rec(Bdd f, std::vector<SatCount>& memo,
                                         std::vector<char>& seen) const {
  if (f == kBddFalse) return SatCount{};
  if (f == kBddTrue) return SatCount::make(1);
  if (seen[f] != 0) return memo[f];
  const Node& n = nodes_[f];
  const std::uint32_t my_level = var2level_[n.var];
  const auto scaled = [&](Bdd child) {
    SatCount c = sat_count_exact_rec(child, memo, seen);
    const std::uint32_t child_level =
        is_terminal(child) ? num_vars_ : var2level_[nodes_[child].var];
    if (!c.is_zero())
      c.exponent += static_cast<std::int32_t>(child_level - my_level - 1);
    return c;
  };
  const SatCount result = scaled(n.low) + scaled(n.high);
  seen[f] = 1;
  memo[f] = result;
  return result;
}

std::size_t BddManager::dag_size(Bdd f) const { return dag_size(std::vector<Bdd>{f}); }

std::size_t BddManager::dag_size(const std::vector<Bdd>& roots) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<Bdd> stack;
  std::size_t count = 0;
  for (const Bdd root : roots) {
    ICTL_ASSERT(root < nodes_.size());
    stack.push_back(root);
  }
  while (!stack.empty()) {
    const Bdd x = stack.back();
    stack.pop_back();
    if (is_terminal(x) || seen[x]) continue;
    seen[x] = true;
    ++count;
    stack.push_back(nodes_[x].low);
    stack.push_back(nodes_[x].high);
  }
  return count;
}

std::vector<std::uint32_t> BddManager::support_vars(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size());
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<bool> in_support(num_vars_, false);
  std::vector<Bdd> stack{f};
  while (!stack.empty()) {
    const Bdd x = stack.back();
    stack.pop_back();
    if (is_terminal(x) || seen[x]) continue;
    seen[x] = true;
    in_support[nodes_[x].var] = true;
    stack.push_back(nodes_[x].low);
    stack.push_back(nodes_[x].high);
  }
  std::vector<std::uint32_t> result;
  for (std::uint32_t v = 0; v < num_vars_; ++v)
    if (in_support[v]) result.push_back(v);
  return result;
}

std::uint32_t BddManager::node_var(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size() && !is_terminal(f));
  return nodes_[f].var;
}

Bdd BddManager::node_low(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size() && !is_terminal(f));
  return nodes_[f].low;
}

Bdd BddManager::node_high(Bdd f) const {
  ICTL_ASSERT(f < nodes_.size() && !is_terminal(f));
  return nodes_[f].high;
}

// ---- Deep audits ------------------------------------------------------------

std::string BddManager::AuditReport::to_string() const {
  std::string out;
  for (const std::string& f : failures) {
    if (!out.empty()) out += '\n';
    out += f;
  }
  return out;
}

namespace {

void fail(BddManager::AuditReport& report, std::string message) {
  // Bounded: a corrupted table can violate one invariant at every node, and
  // an audit report is for reading, not for streaming the whole table.
  constexpr std::size_t kMaxFailures = 64;
  if (report.failures.size() < kMaxFailures) report.failures.push_back(std::move(message));
}

}  // namespace

void BddManager::audit_structure(AuditReport& report) const {
  // The order maps are mutually inverse permutations.
  for (std::uint32_t l = 0; l < num_vars_; ++l)
    if (level2var_[l] >= num_vars_ || var2level_[level2var_[l]] != l)
      fail(report, "structure: order maps not inverse at level " + std::to_string(l));
  // Order invariant, reducedness, global canonicity, live linkage closure.
  // Retired zombies are exempt (unlinked and skipped by swaps, so their
  // triples may be stale); liveness checks their counts instead.
  std::map<std::tuple<std::uint32_t, Bdd, Bdd>, Bdd> triples;
  for (Bdd id = 2; id < nodes_.size(); ++id) {
    if (retired_[id] != 0) continue;
    const Node& n = nodes_[id];
    const std::string at = " at node " + std::to_string(id);
    if (n.var >= num_vars_) {
      fail(report, "structure: variable out of range" + at);
      continue;
    }
    if (n.low >= nodes_.size() || n.high >= nodes_.size()) {
      fail(report, "structure: child handle out of range" + at);
      continue;
    }
    if (n.low == n.high) fail(report, "structure: unreduced node (low == high)" + at);
    if ((!is_terminal(n.low) && retired_[n.low] != 0) ||
        (!is_terminal(n.high) && retired_[n.high] != 0))
      fail(report, "structure: live node references a retired child" + at);
    if (level(id) >= level(n.low) || level(id) >= level(n.high))
      fail(report, "structure: order invariant violated" + at);
    if (!triples.emplace(std::make_tuple(n.var, n.low, n.high), id).second)
      fail(report, "structure: duplicate (var, low, high) triple — canonicity broken" + at);
  }
  // Unique-subtable membership: every non-retired node on exactly its own
  // variable's chain, chain populations matching the counted sizes.
  std::vector<bool> chained(nodes_.size(), false);
  for (std::uint32_t v = 0; v < num_vars_; ++v) {
    std::size_t seen = 0;
    for (const Bdd head : subtables_[v].buckets)
      for (Bdd id = head; id != kNoNode; id = nodes_[id].next) {
        if (id >= nodes_.size()) {
          fail(report, "structure: subtable chain runs off the node table at var " +
                           std::to_string(v));
          break;
        }
        if (nodes_[id].var != v)
          fail(report, "structure: node " + std::to_string(id) +
                           " chained under foreign var " + std::to_string(v));
        if (chained[id])
          fail(report, "structure: node " + std::to_string(id) + " chained twice");
        if (retired_[id] != 0)
          fail(report, "structure: retired node " + std::to_string(id) +
                           " still chained in the unique table");
        chained[id] = true;
        ++seen;
      }
    if (seen != subtables_[v].count)
      fail(report, "structure: subtable count mismatch at var " + std::to_string(v) +
                       " (chained " + std::to_string(seen) + ", counted " +
                       std::to_string(subtables_[v].count) + ")");
  }
  for (Bdd id = 2; id < nodes_.size(); ++id)
    if (!chained[id] && retired_[id] == 0)
      fail(report, "structure: node " + std::to_string(id) +
                       " missing from the unique table but not retired");
}

void BddManager::audit_liveness(AuditReport& report) const {
  // Queue/flag coherence.  The dead queue may hold stale entries whose flag
  // was cleared by a revive (that is the O(1) contract), but every SET flag
  // must still be discoverable by the flush walk.
  std::vector<bool> in_queue(nodes_.size(), false);
  for (const Bdd id : dead_queue_) {
    if (id >= nodes_.size()) {
      fail(report, "liveness: dead queue holds out-of-range id " + std::to_string(id));
      continue;
    }
    in_queue[id] = true;
  }
  std::size_t flagged = 0;
  for (Bdd id = 2; id < nodes_.size(); ++id) {
    if (queued_dead_[id] != 0) {
      ++flagged;
      if (ext_ref_[id] != 0)
        fail(report, "liveness: queued-dead node " + std::to_string(id) +
                         " still externally referenced");
      if (retired_[id] != 0)
        fail(report, "liveness: queued-dead node " + std::to_string(id) + " is retired");
      if (!in_queue[id])
        fail(report, "liveness: queued-dead flag set on node " + std::to_string(id) +
                         " but the node is not in the dead queue");
    }
    if (retired_[id] != 0 && (ref_[id] != 0 || ext_ref_[id] != 0))
      fail(report, "liveness: retired node " + std::to_string(id) +
                       " still carries references");
  }
  if (flagged != queued_dead_count_)
    fail(report, "liveness: queued_dead_count_ is " + std::to_string(queued_dead_count_) +
                     " but " + std::to_string(flagged) + " flags are set");
  // Reference-count recount WITHOUT settling the queue: a queued zombie has
  // released its external root but not yet torn down its cone's counts, so
  // the expected counts are exactly those of the root set {externally
  // referenced} ∪ {queued dead}.
  std::vector<std::uint32_t> expected_ref(nodes_.size(), 0);
  std::vector<bool> live(nodes_.size(), false);
  std::vector<Bdd> stack;
  for (Bdd id = 2; id < nodes_.size(); ++id)
    if ((ext_ref_[id] != 0 || queued_dead_[id] != 0) && !live[id]) {
      live[id] = true;
      stack.push_back(id);
    }
  while (!stack.empty()) {
    const Bdd x = stack.back();
    stack.pop_back();
    if (nodes_[x].low >= nodes_.size() || nodes_[x].high >= nodes_.size())
      continue;  // already reported by the structure tier
    for (const Bdd child : {nodes_[x].low, nodes_[x].high}) {
      if (is_terminal(child)) continue;
      ++expected_ref[child];
      if (!live[child]) {
        live[child] = true;
        stack.push_back(child);
      }
    }
  }
  std::vector<std::size_t> expected_var_count(num_vars_, 0);
  std::size_t expected_live = 0;
  for (Bdd id = 2; id < nodes_.size(); ++id) {
    if (ref_[id] != expected_ref[id])
      fail(report, "liveness: node " + std::to_string(id) + " has refcount " +
                       std::to_string(ref_[id]) + ", recount says " +
                       std::to_string(expected_ref[id]));
    if (live[id] && nodes_[id].var < num_vars_) {
      ++expected_live;
      ++expected_var_count[nodes_[id].var];
    }
  }
  if (expected_live != live_nodes_)
    fail(report, "liveness: live_nodes_ is " + std::to_string(live_nodes_) +
                     ", recount says " + std::to_string(expected_live));
  for (std::uint32_t v = 0; v < num_vars_; ++v)
    if (expected_var_count[v] != var_live_count_[v])
      fail(report, "liveness: var_live_count_[" + std::to_string(v) + "] is " +
                       std::to_string(var_live_count_[v]) + ", recount says " +
                       std::to_string(expected_var_count[v]));
}

void BddManager::audit_caches(AuditReport& report) const {
  const auto retired = [&](Bdd f) {
    return f < nodes_.size() && !is_terminal(f) && retired_[f] != 0;
  };
  for (std::size_t i = 0; i < cache_.size(); ++i) {
    const CacheEntry& e = cache_[i];
    if (e.epoch > cache_epoch_) {
      // A future epoch would spontaneously validate after the next
      // invalidation bump — worse than stale, it is a time bomb.
      fail(report, "caches: computed-table entry " + std::to_string(i) +
                       " stamped with a future epoch");
      continue;
    }
    if (e.epoch != cache_epoch_ || e.op == Op::kNone) continue;
    for (const Bdd operand : {e.a, e.b, e.c, e.result}) {
      if (operand >= nodes_.size())
        fail(report, "caches: computed-table entry " + std::to_string(i) +
                         " references out-of-range handle " + std::to_string(operand));
      else if (retired(operand))
        fail(report, "caches: computed-table entry " + std::to_string(i) +
                         " references retired handle " + std::to_string(operand));
    }
  }
}

void BddManager::audit_satcount(const SatCount& count, const std::string& what,
                                AuditReport& report) {
  if (count.is_zero()) {
    if (count.exponent != 0)
      fail(report, "counts: zero SatCount with nonzero exponent for " + what);
    return;
  }
  if ((count.lo & 1u) == 0)
    fail(report, "counts: SatCount mantissa not normalized odd for " + what);
  if (count.exponent < 0)
    fail(report, "counts: SatCount with negative exponent for " + what +
                     " (assignment counts are integers)");
}

void BddManager::audit_counts(AuditReport& report) const {
  // Every externally rooted function: the exact count must be normalized
  // and must agree with the lossy double path; on small managers both must
  // agree with brute-force evaluation.  (sat_count_exact can legitimately
  // overflow its 128-bit odd part — that is a documented limit, not
  // corruption — so overflow skips the root.)
  const bool brute_force = num_vars_ <= 12;
  for (Bdd id = 2; id < nodes_.size(); ++id) {
    if (ext_ref_[id] == 0 || retired_[id] != 0) continue;
    const std::string what = "root " + std::to_string(id);
    SatCount exact;
    try {
      exact = sat_count_exact(id);
    } catch (const Error&) {
      continue;
    }
    audit_satcount(exact, what, report);
    const double exact_d = exact.to_double();
    const double lossy = sat_count(id);
    if (std::isfinite(exact_d) && std::isfinite(lossy)) {
      const double tolerance = 1e-9 * std::max(1.0, std::max(exact_d, lossy));
      if (std::abs(exact_d - lossy) > tolerance)
        fail(report, "counts: sat_count and sat_count_exact disagree for " + what);
    }
    if (brute_force) {
      std::uint64_t enumerated = 0;
      std::vector<bool> assignment(num_vars_, false);
      for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << num_vars_); ++bits) {
        for (std::uint32_t v = 0; v < num_vars_; ++v)
          assignment[v] = ((bits >> v) & 1u) != 0;
        if (eval(id, assignment)) ++enumerated;
      }
      if (exact != SatCount::make(enumerated))
        fail(report, "counts: sat_count_exact disagrees with brute-force "
                     "enumeration for " +
                         what + " (enumerated " + std::to_string(enumerated) + ")");
    }
  }
}

BddManager::AuditReport BddManager::audit(AuditLevel level) const {
  AuditReport report;
  audit_structure(report);
  if (level >= AuditLevel::kLiveness) audit_liveness(report);
  if (level >= AuditLevel::kCaches) audit_caches(report);
  if (level >= AuditLevel::kFull) audit_counts(report);
  return report;
}

void BddManager::assert_audit(AuditLevel level, const char* where) const {
  const AuditReport report = audit(level);
  if (!report.ok())
    throw Error(std::string("BddManager audit failed at ") + where + ":\n" +
                report.to_string());
}

}  // namespace ictl::symbolic
