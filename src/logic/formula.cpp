#include "logic/formula.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace ictl::logic {

struct Formula::MakeKey {};

Formula::Formula(MakeKey, Kind kind, FormulaPtr lhs, FormulaPtr rhs, std::string name,
                 std::string index_var, std::optional<std::uint32_t> index_value,
                 std::size_t hash, std::uint64_t id)
    : kind_(kind),
      lhs_(std::move(lhs)),
      rhs_(std::move(rhs)),
      name_(std::move(name)),
      index_var_(std::move(index_var)),
      index_value_(index_value),
      hash_(hash),
      id_(id) {}

namespace {

struct ConsKey {
  Kind kind;
  const Formula* lhs;
  const Formula* rhs;
  std::string name;
  std::string index_var;
  std::optional<std::uint32_t> index_value;

  bool operator==(const ConsKey& o) const noexcept {
    return kind == o.kind && lhs == o.lhs && rhs == o.rhs && name == o.name &&
           index_var == o.index_var && index_value == o.index_value;
  }
};

struct ConsKeyHash {
  std::size_t operator()(const ConsKey& k) const noexcept {
    std::size_t h = static_cast<std::size_t>(k.kind);
    support::hash_combine(h, k.lhs);
    support::hash_combine(h, k.rhs);
    support::hash_combine(h, k.name);
    support::hash_combine(h, k.index_var);
    support::hash_combine(h, k.index_value.value_or(0xffffffffu));
    return h;
  }
};

// Hash-consing table.  Entries are weak so unused formulas can be reclaimed;
// a mutex keeps construction thread-safe.  A reclaimed formula leaves an
// expired entry behind; make() sweeps those whenever the table has doubled
// since the last sweep, so the table stays within twice the peak live
// count (or kMinSweepSize) at amortized O(1) per construction.
std::mutex& cons_mutex() {
  static std::mutex m;
  return m;
}
std::unordered_map<ConsKey, std::weak_ptr<const Formula>, ConsKeyHash>& cons_table() {
  static std::unordered_map<ConsKey, std::weak_ptr<const Formula>, ConsKeyHash> t;
  return t;
}

// Monotone node-id source (guarded by cons_mutex): a reclaimed node's id is
// never handed out again, so id-keyed memo caches can never alias.
std::uint64_t next_node_id = 0;

constexpr std::size_t kMinSweepSize = 1024;
std::size_t next_sweep_at = kMinSweepSize;  // guarded by cons_mutex

FormulaPtr make(Kind kind, FormulaPtr lhs = nullptr, FormulaPtr rhs = nullptr,
                std::string name = {}, std::string index_var = {},
                std::optional<std::uint32_t> index_value = std::nullopt) {
  ConsKey key{kind, lhs.get(), rhs.get(), name, index_var, index_value};
  std::lock_guard<std::mutex> lock(cons_mutex());
  auto& table = cons_table();
  if (auto it = table.find(key); it != table.end()) {
    if (auto existing = it->second.lock()) return existing;
  }
  const std::size_t hash = ConsKeyHash{}(key);
  auto f = std::make_shared<const Formula>(Formula::MakeKey{}, kind, std::move(lhs),
                                           std::move(rhs), std::move(name),
                                           std::move(index_var), index_value, hash,
                                           next_node_id++);
  table[key] = f;
  if (table.size() >= next_sweep_at) {
    // Erasing an expired weak_ptr never runs a Formula destructor (the
    // node is already gone), so this cannot re-enter make() under the lock.
    std::erase_if(table, [](const auto& entry) { return entry.second.expired(); });
    next_sweep_at = std::max(kMinSweepSize, 2 * table.size());
  }
  return f;
}

}  // namespace

std::size_t hash_cons_table_size() {
  std::lock_guard<std::mutex> lock(cons_mutex());
  return cons_table().size();
}

FormulaPtr f_true() { return make(Kind::kTrue); }
FormulaPtr f_false() { return make(Kind::kFalse); }

FormulaPtr atom(std::string_view name) {
  support::require<LogicError>(!name.empty(), "atom: empty name");
  return make(Kind::kAtom, nullptr, nullptr, std::string(name));
}

FormulaPtr iatom(std::string_view base, std::string_view index_var) {
  support::require<LogicError>(!base.empty() && !index_var.empty(),
                               "iatom: empty base or index variable");
  return make(Kind::kIndexedAtom, nullptr, nullptr, std::string(base),
              std::string(index_var));
}

FormulaPtr iatom_val(std::string_view base, std::uint32_t index_value) {
  support::require<LogicError>(!base.empty(), "iatom_val: empty base");
  return make(Kind::kIndexedAtom, nullptr, nullptr, std::string(base), {},
              index_value);
}

FormulaPtr exactly_one(std::string_view base) {
  support::require<LogicError>(!base.empty(), "exactly_one: empty base");
  return make(Kind::kExactlyOne, nullptr, nullptr, std::string(base));
}

FormulaPtr make_not(FormulaPtr f) {
  support::require<LogicError>(f != nullptr, "make_not: null operand");
  return make(Kind::kNot, std::move(f));
}

namespace {
FormulaPtr binary(Kind kind, FormulaPtr a, FormulaPtr b, const char* what) {
  support::require<LogicError>(a != nullptr && b != nullptr,
                               std::string(what) + ": null operand");
  return make(kind, std::move(a), std::move(b));
}
}  // namespace

FormulaPtr make_and(FormulaPtr a, FormulaPtr b) {
  return binary(Kind::kAnd, std::move(a), std::move(b), "make_and");
}
FormulaPtr make_or(FormulaPtr a, FormulaPtr b) {
  return binary(Kind::kOr, std::move(a), std::move(b), "make_or");
}
FormulaPtr make_implies(FormulaPtr a, FormulaPtr b) {
  return binary(Kind::kImplies, std::move(a), std::move(b), "make_implies");
}
FormulaPtr make_iff(FormulaPtr a, FormulaPtr b) {
  return binary(Kind::kIff, std::move(a), std::move(b), "make_iff");
}

FormulaPtr make_and(const std::vector<FormulaPtr>& fs) {
  if (fs.empty()) return f_true();
  FormulaPtr acc = fs.front();
  for (std::size_t i = 1; i < fs.size(); ++i) acc = make_and(acc, fs[i]);
  return acc;
}

FormulaPtr make_or(const std::vector<FormulaPtr>& fs) {
  if (fs.empty()) return f_false();
  FormulaPtr acc = fs.front();
  for (std::size_t i = 1; i < fs.size(); ++i) acc = make_or(acc, fs[i]);
  return acc;
}

FormulaPtr make_E(FormulaPtr path) {
  support::require<LogicError>(path != nullptr, "make_E: null operand");
  return make(Kind::kExistsPath, std::move(path));
}

FormulaPtr make_A(FormulaPtr path) {
  support::require<LogicError>(path != nullptr, "make_A: null operand");
  return make(Kind::kForallPath, std::move(path));
}

FormulaPtr make_until(FormulaPtr a, FormulaPtr b) {
  return binary(Kind::kUntil, std::move(a), std::move(b), "make_until");
}
FormulaPtr make_release(FormulaPtr a, FormulaPtr b) {
  return binary(Kind::kRelease, std::move(a), std::move(b), "make_release");
}

FormulaPtr make_eventually(FormulaPtr f) {
  support::require<LogicError>(f != nullptr, "make_eventually: null operand");
  return make(Kind::kEventually, std::move(f));
}

FormulaPtr make_always(FormulaPtr f) {
  support::require<LogicError>(f != nullptr, "make_always: null operand");
  return make(Kind::kAlways, std::move(f));
}

FormulaPtr make_next(FormulaPtr f) {
  support::require<LogicError>(f != nullptr, "make_next: null operand");
  return make(Kind::kNext, std::move(f));
}

FormulaPtr forall_index(std::string_view var, FormulaPtr body) {
  support::require<LogicError>(!var.empty() && body != nullptr,
                               "forall_index: empty variable or null body");
  return make(Kind::kForallIndex, std::move(body), nullptr, std::string(var));
}

FormulaPtr exists_index(std::string_view var, FormulaPtr body) {
  support::require<LogicError>(!var.empty() && body != nullptr,
                               "exists_index: empty variable or null body");
  return make(Kind::kExistsIndex, std::move(body), nullptr, std::string(var));
}

std::size_t formula_size(const FormulaPtr& f) {
  if (f == nullptr) return 0;
  return 1 + formula_size(f->lhs()) + formula_size(f->rhs());
}

}  // namespace ictl::logic
