// The one CTL checker façade over the compiled core, shared by the explicit
// (mc::CtlChecker) and symbolic (symbolic::CtlChecker) engines: it owns the
// ProgramCompiler, the StateSetOps backend, the ProgramEvaluator running
// programs over it, and the result memo.  The engine façades derive from it
// and add only what differs per backend — construction, the initial-state
// test, and the structure/system accessor.
//
// Memoization is keyed on hash-consed node identity (logic::Formula::id —
// never reused, so no stale-entry aliasing); each entry is the program's
// root register after a run, so symbolic entries stay BddRef-rooted for the
// checker's lifetime.  The compiler's program cache retains the root
// formulas, keeping their cons-table entries alive so structurally equal
// rebuilds still hit both caches.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "eval/program_compiler.hpp"
#include "eval/program_evaluator.hpp"
#include "logic/classify.hpp"
#include "logic/formula.hpp"
#include "logic/printer.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace ictl::eval {

template <StateSetOps Ops>
class CompiledChecker {
 public:
  /// `scope` ("mc", "sym") prefixes the registry keys publish_stats writes;
  /// it must have static storage duration.  `ops_args` construct the backend.
  template <typename... OpsArgs>
  CompiledChecker(const char* scope, std::span<const std::uint32_t> index_set,
                  OpsArgs&&... ops_args)
      : scope_(scope),
        compiler_({index_set.begin(), index_set.end()}),
        ops_(std::forward<OpsArgs>(ops_args)...),
        evaluator_(ops_) {}
  CompiledChecker(const CompiledChecker&) = delete;
  CompiledChecker& operator=(const CompiledChecker&) = delete;

  /// Satisfying set of a CTL state formula.  Index quantifiers are expanded
  /// over the index set; `one P` is evaluated from the labels.  Throws
  /// LogicError when `f` is outside the CTL fragment or has free index
  /// variables.
  [[nodiscard]] const typename Ops::Set& sat(const logic::FormulaPtr& f) {
    const auto it = f == nullptr ? memo_.end() : memo_.find(f->id());
    if (it != memo_.end()) return it->second;
    typename Ops::Set result = evaluator_.run(*program(f));
    return memo_.emplace(f->id(), std::move(result)).first->second;
  }

  /// The compiled program for `f` (cached, shared with every engine that
  /// compiles the same formula DAG against the same index set).  Same
  /// checks as sat(), no evaluation.
  [[nodiscard]] std::shared_ptr<const FixpointProgram> program(
      const logic::FormulaPtr& f) {
    return compiler_.compile(checked(f));
  }

  /// Compile-side counters (programs compiled, cache and CSE hits).
  [[nodiscard]] const ProgramCompiler::Stats& compile_stats() const noexcept {
    return compiler_.stats();
  }
  /// Run-side counters (instructions executed, fixpoint iterations,
  /// register high-water mark) accumulated across every sat() call.
  [[nodiscard]] const EvalStats& eval_stats() const noexcept {
    return evaluator_.stats();
  }

  /// Mirrors both stats blocks into `registry` under "<scope>/eval" and
  /// "<scope>/compile".
  void publish_stats(obs::Registry& registry) const {
    const std::string eval_scope = std::string(scope_) + "/eval";
    const EvalStats& e = eval_stats();
    registry.set(eval_scope, "programs_run", e.programs_run);
    registry.set(eval_scope, "instructions", e.instructions);
    registry.set(eval_scope, "leaf_evals", e.leaf_evals);
    registry.set(eval_scope, "fixpoint_ops", e.fixpoint_ops);
    registry.set(eval_scope, "fixpoint_iterations", e.fixpoint_iterations);
    registry.set(eval_scope, "register_high_water", e.register_high_water);
    for (std::size_t i = 0; i < kNumOpCodes; ++i) {
      if (e.op_count[i] != 0)
        registry.set(eval_scope,
                     "op_" + std::string(opcode_name(static_cast<OpCode>(i))),
                     e.op_count[i]);
    }
    const std::string compile_scope = std::string(scope_) + "/compile";
    const ProgramCompiler::Stats& c = compile_stats();
    registry.set(compile_scope, "programs_compiled", c.programs_compiled);
    registry.set(compile_scope, "cache_hits", c.cache_hits);
    registry.set(compile_scope, "cse_hits", c.cse_hits);
  }

 protected:
  [[nodiscard]] const Ops& ops() const noexcept { return ops_; }

 private:
  static const logic::FormulaPtr& checked(const logic::FormulaPtr& f) {
    support::require<LogicError>(f != nullptr, "CtlChecker: null formula");
    if (!logic::is_ctl(f))
      throw LogicError("CtlChecker: formula outside the CTL fragment: " +
                       logic::to_string(f) + " (use the CTL* checker)");
    return f;
  }

  const char* scope_;
  ProgramCompiler compiler_;
  Ops ops_;
  ProgramEvaluator<Ops> evaluator_;
  std::unordered_map<std::uint64_t, typename Ops::Set> memo_;
};

}  // namespace ictl::eval
