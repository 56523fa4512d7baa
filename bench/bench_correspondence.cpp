// FIG-3.1 / CORR-2R / ALG-ABL: the correspondence decision procedure.
//
// Measures the Section 3 greatest-fixpoint decision on growing structures,
// the effect of the stuttering-equivalence pre-filter (design-choice
// ablation), the literal clause checker, and the baseline equivalences
// (strong bisimulation, stuttering partition) for comparison.
#include <benchmark/benchmark.h>

#include "ictl.hpp"

namespace {

using namespace ictl;

kripke::Structure stuttered(kripke::PropRegistryPtr reg, std::size_t run) {
  kripke::StructureBuilder b(reg);
  const auto pa = reg->plain("a");
  const auto pb = reg->plain("b");
  std::vector<kripke::StateId> as;
  for (std::size_t i = 0; i < run; ++i) as.push_back(b.add_state({pa}));
  const auto sb = b.add_state({pb});
  for (std::size_t i = 0; i + 1 < run; ++i) b.add_transition(as[i], as[i + 1]);
  b.add_transition(as.back(), sb);
  b.add_transition(sb, as.front());
  b.set_initial(as.front());
  return std::move(b).build();
}

void BM_FindCorrespondence_StutterRuns(benchmark::State& state) {
  const auto run = static_cast<std::size_t>(state.range(0));
  auto reg = kripke::make_registry();
  const auto a = stuttered(reg, 2);
  const auto b = stuttered(reg, run);
  for (auto _ : state) {
    auto found = bisim::find_correspondence(a, b);
    benchmark::DoNotOptimize(found.relation.has_value());
  }
  state.counters["run"] = static_cast<double>(run);
}
BENCHMARK(BM_FindCorrespondence_StutterRuns)->RangeMultiplier(2)->Range(4, 64);

// Ablation: the stuttering pre-filter on ring reductions.
void BM_RingReductionCorrespondence(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const bool prefilter = state.range(1) != 0;
  auto reg = kripke::make_registry();
  const auto m3 = ring::RingSystem::build(3, reg);
  const auto mr = ring::RingSystem::build(r, reg);
  bisim::FindOptions options;
  options.use_stuttering_prefilter = prefilter;
  std::size_t candidates = 0;
  for (auto _ : state) {
    const auto a = kripke::reduce_to_index(m3.structure(), 2);
    const auto b = kripke::reduce_to_index(mr.structure(), 2);
    auto found = bisim::find_correspondence(a, b, options);
    candidates = found.candidate_pairs;
    benchmark::DoNotOptimize(found.relation.has_value());
  }
  state.counters["candidate_pairs"] = static_cast<double>(candidates);
  state.SetLabel(prefilter ? "with_prefilter" : "no_prefilter");
}
BENCHMARK(BM_RingReductionCorrespondence)
    ->Args({4, 1})->Args({4, 0})
    ->Args({5, 1})->Args({5, 0})
    ->Args({6, 1})->Args({6, 0})
    ->Args({7, 1})->Args({7, 0})
    ->Unit(benchmark::kMillisecond);

// The literal Section 3 clause checker on the coarsest relation.
void BM_ValidateRelation(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  auto reg = kripke::make_registry();
  const auto m3 = ring::RingSystem::build(3, reg);
  const auto mr = ring::RingSystem::build(r, reg);
  auto found =
      bisim::find_indexed_correspondence(m3.structure(), mr.structure(), 2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(found.relation->validate().empty());
  }
  state.counters["pairs"] = static_cast<double>(found.relation->num_pairs());
}
BENCHMARK(BM_ValidateRelation)->DenseRange(3, 7, 1)->Unit(benchmark::kMillisecond);

// Baselines: strong bisimulation and stuttering partitioning on the same
// inputs (strong bisim is finer and cannot justify the reduction, but shows
// the partition-refinement cost floor).
void BM_StrongBisimPartition(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto sys = ring::RingSystem::build(r);
  for (auto _ : state) {
    auto p = bisim::strong_bisimulation_partition(sys.structure());
    benchmark::DoNotOptimize(p.num_blocks());
  }
  state.counters["states"] = static_cast<double>(sys.structure().num_states());
}
BENCHMARK(BM_StrongBisimPartition)->DenseRange(3, 10, 1)->Unit(benchmark::kMillisecond);

void BM_StutteringPartition(benchmark::State& state) {
  const auto r = static_cast<std::uint32_t>(state.range(0));
  const auto sys = ring::RingSystem::build(r);
  const auto reduced = kripke::reduce_to_index(sys.structure(), 2);
  for (auto _ : state) {
    auto p = bisim::stuttering_partition(reduced);
    benchmark::DoNotOptimize(p.num_blocks());
  }
  state.counters["states"] = static_cast<double>(reduced.num_states());
}
BENCHMARK(BM_StutteringPartition)->DenseRange(3, 10, 1)->Unit(benchmark::kMillisecond);

// Lemma 1's constructive path matching.
void BM_PathMatch(benchmark::State& state) {
  const auto length = static_cast<std::size_t>(state.range(0));
  auto reg = kripke::make_registry();
  const auto a = stuttered(reg, 2);
  const auto b = stuttered(reg, 5);
  auto found = bisim::find_correspondence(a, b);
  std::vector<kripke::StateId> path{a.initial()};
  while (path.size() < length)
    path.push_back(a.successors(path.back()).front());
  for (auto _ : state) {
    auto match = bisim::match_path(*found.relation, path, b.initial());
    benchmark::DoNotOptimize(match.has_value());
  }
}
BENCHMARK(BM_PathMatch)->RangeMultiplier(4)->Range(4, 1024);

}  // namespace

BENCHMARK_MAIN();
