// ProgramEvaluator tests: per-opcode differential against the recursive
// naive reference on random small structures, the naive backend running the
// *identical* program as the production explicit backend, cross-engine
// program identity, and the evaluator's stats counters.
#include "eval/program_evaluator.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "../mc/naive_reference.hpp"
#include "eval/program_compiler.hpp"
#include "logic/parser.hpp"
#include "mc/explicit_ops.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::eval {
namespace {

using logic::parse_formula;

/// Runs `f` compiled on both bitset backends and checks both against the
/// independent recursive reference.
void expect_matches_reference(const kripke::Structure& m,
                              const logic::FormulaPtr& f, const char* label) {
  ProgramCompiler compiler({});
  const auto program = compiler.compile(f);

  mc::ExplicitStateOps explicit_ops(m);
  ProgramEvaluator<mc::ExplicitStateOps> explicit_eval(explicit_ops);
  const auto via_explicit = explicit_eval.run(*program);

  mc::naive::NaiveStateOps naive_ops(m);
  ProgramEvaluator<mc::naive::NaiveStateOps> naive_eval(naive_ops);
  const auto via_naive = naive_eval.run(*program);

  const auto expected = mc::naive::sat(m, f);
  EXPECT_TRUE(via_explicit == expected) << label;
  EXPECT_TRUE(via_naive == expected) << label;
}

TEST(ProgramEvaluator, PerOpcodeDifferentialOnRandomStructures) {
  // One formula per IR opcode (plus the dualities that compose them), so a
  // miscompiled or misevaluated instruction pins to a specific case.
  const char* formulas[] = {
      "true",            // kConstTrue
      "false",           // kConstFalse
      "p",               // kLeaf
      "!p",              // kNot
      "p & q",           // kAnd
      "p | q",           // kOr
      "p <-> q",         // kIff
      "E (p U q)",       // kEU
      "E G p",           // kEG
      "A F q",           // kEG via duality
      "A G (p -> A F q)",
      "E (q R p)",
      "A ((p | q) U q)",
  };
  for (const std::uint32_t seed : {3u, 17u, 29u, 58u}) {
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 24 + seed % 9, seed);
    for (const char* text : formulas)
      expect_matches_reference(m, parse_formula(text), text);
  }
}

TEST(ProgramEvaluator, ExInstructionMatchesNaivePreImage) {
  // kEX has no surface syntax in the paper's logic (X is excluded); compile
  // E X p / A X p directly and check against the reference pre-image.
  for (const std::uint32_t seed : {7u, 21u}) {
    auto reg = kripke::make_registry();
    const auto m = testing::random_structure(reg, 20, seed);
    ProgramCompiler compiler({});

    const auto ex_f = logic::make_E(logic::make_next(logic::atom("p")));
    mc::ExplicitStateOps ops(m);
    ProgramEvaluator<mc::ExplicitStateOps> eval(ops);
    const auto via_program = eval.run(*compiler.compile(ex_f));
    const auto expected =
        mc::naive::ex(m, mc::naive::leaf(m, logic::atom("p")));
    EXPECT_TRUE(via_program == expected) << "seed " << seed;

    // A X p = !EX !p.
    const auto ax_f = logic::make_A(logic::make_next(logic::atom("p")));
    const auto via_ax = eval.run(*compiler.compile(ax_f));
    auto not_p = mc::naive::leaf(m, logic::atom("p"));
    not_p.flip();
    auto expected_ax = mc::naive::ex(m, not_p);
    expected_ax.flip();
    EXPECT_TRUE(via_ax == expected_ax) << "seed " << seed;
  }
}

TEST(ProgramEvaluator, NaiveBackendRunsTheIdenticalProgram) {
  // The differential harness's guarantee: one compiled artifact, three
  // engines.  Here the shared program object itself is run by both bitset
  // backends (the symbolic façade's program identity is pinned below).
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 30, 11);
  ProgramCompiler compiler({});
  const auto program = compiler.compile(parse_formula("A G (p -> E (p U q))"));

  mc::ExplicitStateOps explicit_ops(m);
  mc::naive::NaiveStateOps naive_ops(m);
  ProgramEvaluator<mc::ExplicitStateOps> a(explicit_ops);
  ProgramEvaluator<mc::naive::NaiveStateOps> b(naive_ops);
  EXPECT_TRUE(a.run(*program) == b.run(*program));
}

TEST(ProgramEvaluator, FacadesCompileTheSameProgramAcrossEngines) {
  // mc::CtlChecker and symbolic::CtlChecker compile independently (their
  // compilers are per-checker), but for the same formula DAG and index set
  // they must produce byte-identical programs — the artifact a future
  // verification server caches per (structure fingerprint, formula id).
  const std::uint32_t r = 3;
  auto reg = kripke::make_registry();
  const auto explicit_sys = testing::ring_of(r, reg);
  const auto sym = symbolic::build_symbolic_ring(r, nullptr, reg);
  mc::CtlChecker explicit_checker(explicit_sys.structure());
  symbolic::CtlChecker symbolic_checker(sym.system);
  for (const auto& [name, f] : testing::section_five_properties()) {
    const auto pe = explicit_checker.program(f);
    const auto ps = symbolic_checker.program(f);
    EXPECT_EQ(pe->disassemble(), ps->disassemble()) << name;
    EXPECT_EQ(pe->formula_id, ps->formula_id) << name;
  }
}

TEST(ProgramEvaluator, StatsCountInstructionsAndFixpoints) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 40, 5);
  ProgramCompiler compiler({});
  const auto program = compiler.compile(parse_formula("A G (p -> A F q)"));

  mc::ExplicitStateOps ops(m);
  ProgramEvaluator<mc::ExplicitStateOps> eval(ops);
  static_cast<void>(eval.run(*program));
  const EvalStats& stats = eval.stats();
  EXPECT_EQ(stats.programs_run, 1u);
  EXPECT_EQ(stats.instructions, program->code.size());
  EXPECT_EQ(stats.fixpoint_ops, program->num_fixpoint_ops());
  EXPECT_GT(stats.fixpoint_iterations, 0u);
  EXPECT_EQ(stats.register_high_water, program->num_registers);
  EXPECT_EQ(stats.leaf_evals, 2u);  // p and q

  static_cast<void>(eval.run(*program));
  EXPECT_EQ(eval.stats().programs_run, 2u);
  EXPECT_EQ(eval.stats().instructions, 2 * program->code.size());
}

TEST(ProgramEvaluator, CheckerFacadeStatsAccumulate) {
  auto reg = kripke::make_registry();
  const auto m = testing::random_structure(reg, 25, 2);
  mc::CtlChecker checker(m);
  static_cast<void>(checker.sat(parse_formula("A F q")));
  static_cast<void>(checker.sat(parse_formula("E (p U q)")));
  EXPECT_EQ(checker.eval_stats().programs_run, 2u);
  EXPECT_EQ(checker.compile_stats().programs_compiled, 2u);
  EXPECT_GT(checker.eval_stats().fixpoint_iterations, 0u);
  // Memo: re-asking runs nothing new.
  static_cast<void>(checker.sat(parse_formula("A F q")));
  EXPECT_EQ(checker.eval_stats().programs_run, 2u);
}

}  // namespace
}  // namespace ictl::eval
