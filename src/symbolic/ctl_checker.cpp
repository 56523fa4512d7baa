#include "symbolic/ctl_checker.hpp"

#include <utility>

#include "eval/publish.hpp"
#include "logic/classify.hpp"
#include "logic/printer.hpp"
#include "support/error.hpp"

namespace ictl::symbolic {

using logic::FormulaPtr;

namespace {

std::vector<std::uint32_t> index_set_of(const TransitionSystem* system) {
  support::require<ModelError>(system != nullptr, "CtlChecker: null system");
  const auto indices = system->index_set();
  return {indices.begin(), indices.end()};
}

}  // namespace

CtlChecker::CtlChecker(std::shared_ptr<const TransitionSystem> system,
                       CtlCheckerOptions options)
    : system_(std::move(system)),
      compiler_(index_set_of(system_.get())),
      ops_(system_, options.unknown_atoms_are_false),
      evaluator_(ops_) {}

Bdd CtlChecker::sat(const FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "CtlChecker::sat: null formula");
  if (const auto it = memo_.find(f->id()); it != memo_.end())
    return it->second.get();
  support::require<LogicError>(
      logic::is_ctl(f), "symbolic CtlChecker: formula outside the CTL fragment: " +
                            logic::to_string(f));
  BddRef result = evaluator_.run(*compiler_.compile(f));
  const Bdd handle = result.get();
  memo_.emplace(f->id(), std::move(result));  // the memo roots it from here on
  return handle;
}

bool CtlChecker::holds_initially(const FormulaPtr& f) {
  BddManager& m = system_->manager();
  const Bdd initial = system_->initial();
  return m.bdd_diff(initial, sat(f)).get() == kBddFalse;
}

std::shared_ptr<const eval::FixpointProgram> CtlChecker::program(
    const FormulaPtr& f) {
  support::require<LogicError>(f != nullptr, "CtlChecker::program: null formula");
  support::require<LogicError>(
      logic::is_ctl(f), "symbolic CtlChecker: formula outside the CTL fragment: " +
                            logic::to_string(f));
  return compiler_.compile(f);
}

void CtlChecker::publish_stats(obs::Registry& registry) const {
  eval::publish_stats(eval_stats(), registry, "sym/eval");
  eval::publish_stats(compile_stats(), registry, "sym/compile");
  system_->manager().publish_stats(registry);
}

}  // namespace ictl::symbolic
