// Substrate bench + ALG-ABL: the GPVW tableau translation and the CTL
// fast path ablation inside the CTL* checker.
#include <benchmark/benchmark.h>

#include "ictl.hpp"

namespace {

using namespace ictl;

logic::FormulaPtr until_chain(std::size_t n) {
  logic::FormulaPtr f = logic::atom(std::string("p").append(std::to_string(n)));
  for (std::size_t i = n - 1; i >= 1; --i)
    f = logic::make_until(logic::atom(std::string("p").append(std::to_string(i))), f);
  return f;
}

void BM_TableauUntilChain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto f = logic::to_nnf(logic::desugar(until_chain(n)));
  std::size_t nodes = 0;
  for (auto _ : state) {
    const auto gba = mc::build_gba(f);
    nodes = gba.nodes.size();
    benchmark::DoNotOptimize(gba);
  }
  state.counters["gba_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_TableauUntilChain)->DenseRange(2, 9, 1);

void BM_TableauFairness(benchmark::State& state) {
  // Conjunctions of GF p_i: the classic hard case for tableau size.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<logic::FormulaPtr> conjuncts;
  for (std::size_t i = 1; i <= n; ++i)
    conjuncts.push_back(logic::make_always(
        logic::make_eventually(logic::atom(std::string("p").append(std::to_string(i))))));
  const auto f = logic::to_nnf(logic::desugar(logic::make_and(conjuncts)));
  std::size_t nodes = 0;
  for (auto _ : state) {
    const auto gba = mc::build_gba(f);
    nodes = gba.nodes.size();
    benchmark::DoNotOptimize(gba);
  }
  state.counters["gba_nodes"] = static_cast<double>(nodes);
  state.counters["acc_sets"] = static_cast<double>(n);
}
BENCHMARK(BM_TableauFairness)->DenseRange(1, 5, 1);

// Ablation: CTL-fragment formulas through the labeling fast path versus the
// generic tableau route — same verdicts, very different costs.
void BM_CtlFormulaFastPath(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const bool fast = state.range(1) != 0;
  const auto sys = ring::RingSystem::build(r);
  const auto f = ring::property_eventually_critical();
  mc::CheckerOptions options;
  options.use_ctl_fast_path = fast;
  for (auto _ : state) {
    mc::Checker checker(sys.structure(), options);
    benchmark::DoNotOptimize(checker.holds_initially(f));
  }
  state.SetLabel(fast ? "fast_path" : "tableau");
  state.counters["states"] = static_cast<double>(sys.structure().num_states());
}
BENCHMARK(BM_CtlFormulaFastPath)
    ->Args({4, 1})->Args({4, 0})
    ->Args({6, 1})->Args({6, 0})
    ->Args({8, 1})->Args({8, 0})
    ->Unit(benchmark::kMillisecond);

// Genuine CTL* (no CTL equivalent without rewriting): E(F p & G q)-style.
void BM_GenuineCtlStar(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto sys = ring::RingSystem::build(r);
  const auto f = logic::parse_formula("E (F c[1] & G !d[1])");
  for (auto _ : state) {
    mc::Checker checker(sys.structure());
    benchmark::DoNotOptimize(checker.holds_initially(f));
  }
  state.counters["states"] = static_cast<double>(sys.structure().num_states());
}
BENCHMARK(BM_GenuineCtlStar)->DenseRange(3, 9, 1)->Unit(benchmark::kMillisecond);

void BM_ParseSection5Specs(benchmark::State& state) {
  for (auto _ : state) {
    auto specs = ring::section5_specifications();
    benchmark::DoNotOptimize(specs);
  }
}
BENCHMARK(BM_ParseSection5Specs);

}  // namespace

BENCHMARK_MAIN();
