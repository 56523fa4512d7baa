// The formula AST for CTL* and indexed CTL* (ICTL*), paper Sections 2 and 4.
//
// State formulas:  A (atom),  A_i (indexed atom),  Theta P ("exactly one"),
//                  !f, f&g, f|g, f->g, f<->g,  E(path), A(path),
//                  \/i f(i) (ExistsIndex),  /\i f(i) (ForallIndex).
// Path formulas:   any state formula,  !g, g&h, g|h,  g U h,  plus the
//                  abbreviations F g (= true U g), G g (= !F!g) and the dual
//                  R (release), which normal forms introduce.
//
// The nexttime operator X is deliberately NOT part of the paper's logic
// (Section 2 shows it can count processes).  We still represent it as a node
// kind so the library can *demonstrate* that exclusion (the NEXTTIME
// experiment); the parser rejects it unless explicitly asked, and the
// classifiers flag it.
//
// Formulas are immutable, hash-consed DAG nodes: two structurally equal
// formulas are the same object, so pointer identity is structural identity
// and checkers may memoize by pointer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ictl::logic {

enum class Kind : std::uint8_t {
  kTrue,
  kFalse,
  kAtom,         ///< plain atomic proposition, by name
  kIndexedAtom,  ///< base[i] with i an index variable, or base[c] with c concrete
  kExactlyOne,   ///< one(P): the paper's Theta_i P_i extension
  kNot,
  kAnd,
  kOr,
  kImplies,
  kIff,
  kExistsPath,   ///< E(g)
  kForallPath,   ///< A(g)
  kUntil,        ///< g U h
  kRelease,      ///< g R h (dual of U)
  kEventually,   ///< F g
  kAlways,       ///< G g
  kNext,         ///< X g — excluded from the public logic (see header comment)
  kForallIndex,  ///< /\i f(i)
  kExistsIndex,  ///< \/i f(i)
};

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

class Formula {
 public:
  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// Left child (unary operand / first binary operand / quantifier body).
  [[nodiscard]] const FormulaPtr& lhs() const noexcept { return lhs_; }
  /// Right child of binary operators.
  [[nodiscard]] const FormulaPtr& rhs() const noexcept { return rhs_; }

  /// Atom name, indexed-atom base, ExactlyOne base, or quantified variable.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// For kIndexedAtom: the index variable name ("" when the index is a
  /// concrete value).
  [[nodiscard]] const std::string& index_var() const noexcept { return index_var_; }

  /// For kIndexedAtom: the concrete index value, when bound.
  [[nodiscard]] const std::optional<std::uint32_t>& index_value() const noexcept {
    return index_value_;
  }

  [[nodiscard]] std::size_t hash() const noexcept { return hash_; }

  /// Hash-consed node identity: a process-unique, never-reused id assigned
  /// at construction.  Two live formulas have equal ids iff they are the
  /// same node, so checkers (explicit and symbolic alike) key their memo
  /// caches on it — unlike raw pointers, a reclaimed-and-reallocated node
  /// can never alias a stale cache entry.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  // Construction goes through the factory functions below; Formula itself is
  // not publicly constructible.
  struct MakeKey;
  Formula(MakeKey, Kind kind, FormulaPtr lhs, FormulaPtr rhs, std::string name,
          std::string index_var, std::optional<std::uint32_t> index_value,
          std::size_t hash, std::uint64_t id);

 private:
  Kind kind_;
  FormulaPtr lhs_;
  FormulaPtr rhs_;
  std::string name_;
  std::string index_var_;
  std::optional<std::uint32_t> index_value_;
  std::size_t hash_;
  std::uint64_t id_;
};

// ---- Factory functions (hash-consed) ---------------------------------------

[[nodiscard]] FormulaPtr f_true();
[[nodiscard]] FormulaPtr f_false();
[[nodiscard]] FormulaPtr atom(std::string_view name);
/// Indexed atom with a variable index: base[i].
[[nodiscard]] FormulaPtr iatom(std::string_view base, std::string_view index_var);
/// Indexed atom with a concrete index: base[c].
[[nodiscard]] FormulaPtr iatom_val(std::string_view base, std::uint32_t index_value);
/// one(P): exactly one index value satisfies P (paper Section 4 extension).
[[nodiscard]] FormulaPtr exactly_one(std::string_view base);

[[nodiscard]] FormulaPtr make_not(FormulaPtr f);
[[nodiscard]] FormulaPtr make_and(FormulaPtr a, FormulaPtr b);
[[nodiscard]] FormulaPtr make_or(FormulaPtr a, FormulaPtr b);
[[nodiscard]] FormulaPtr make_implies(FormulaPtr a, FormulaPtr b);
[[nodiscard]] FormulaPtr make_iff(FormulaPtr a, FormulaPtr b);

/// Conjunction / disjunction over a list (empty list = true / false).
[[nodiscard]] FormulaPtr make_and(const std::vector<FormulaPtr>& fs);
[[nodiscard]] FormulaPtr make_or(const std::vector<FormulaPtr>& fs);

[[nodiscard]] FormulaPtr make_E(FormulaPtr path);
[[nodiscard]] FormulaPtr make_A(FormulaPtr path);
[[nodiscard]] FormulaPtr make_until(FormulaPtr a, FormulaPtr b);
[[nodiscard]] FormulaPtr make_release(FormulaPtr a, FormulaPtr b);
[[nodiscard]] FormulaPtr make_eventually(FormulaPtr f);
[[nodiscard]] FormulaPtr make_always(FormulaPtr f);
/// X — internal use only (NEXTTIME experiment); not accepted by default parse.
[[nodiscard]] FormulaPtr make_next(FormulaPtr f);

[[nodiscard]] FormulaPtr forall_index(std::string_view var, FormulaPtr body);
[[nodiscard]] FormulaPtr exists_index(std::string_view var, FormulaPtr body);

// ---- Convenience CTL combinators -------------------------------------------

[[nodiscard]] inline FormulaPtr AG(FormulaPtr f) { return make_A(make_always(std::move(f))); }
[[nodiscard]] inline FormulaPtr AF(FormulaPtr f) { return make_A(make_eventually(std::move(f))); }
[[nodiscard]] inline FormulaPtr EG(FormulaPtr f) { return make_E(make_always(std::move(f))); }
[[nodiscard]] inline FormulaPtr EF(FormulaPtr f) { return make_E(make_eventually(std::move(f))); }
[[nodiscard]] inline FormulaPtr AU(FormulaPtr a, FormulaPtr b) {
  return make_A(make_until(std::move(a), std::move(b)));
}
[[nodiscard]] inline FormulaPtr EU(FormulaPtr a, FormulaPtr b) {
  return make_E(make_until(std::move(a), std::move(b)));
}

/// Number of nodes in the formula DAG counted as a tree (formula size).
[[nodiscard]] std::size_t formula_size(const FormulaPtr& f);

/// Entries in the process-wide hash-cons table, live or expired but not yet
/// swept — at most twice the peak number of live formulas (or 1024).
[[nodiscard]] std::size_t hash_cons_table_size();

}  // namespace ictl::logic
