// obs: the telemetry spine in isolation.  Registry cells (stable
// references, gauge overwrite, sorted snapshot, JSON export), the profile
// tree (nesting, aggregation across repeated spans, the percent-of-total
// report), span runtime gating (a disabled span records nothing), and the
// Chrome-trace emitter (balanced B/E pairs, monotone timestamps, span
// args), and the spine's consumers in the engines: the checker façades'
// publish_stats bridge, the evaluator's per-opcode spans, the symbolic
// image counters, and the correspondence spans' work-count args.
// Recording tests skip when the instrumentation is compiled out
// (-DICTL_OBS=OFF): the classes still exist there — only recording stops.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "bisim/indexed_correspondence.hpp"
#include "eval/fixpoint_program.hpp"
#include "mc/ctl_checker.hpp"
#include "obs/obs.hpp"
#include "ring/ring.hpp"
#include "symbolic/ctl_checker.hpp"
#include "symbolic/ring_encoding.hpp"

namespace ictl::obs {
namespace {

/// set_enabled + global profiler/registry state is process-wide; every test
/// that arms recording goes through this fixture so it cannot leak an
/// enabled flag or half-built profile tree into its neighbours.
class ObsRecordingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
    Profiler::global().reset();
    set_enabled(true);
  }
  void TearDown() override {
    if (kCompiledIn) {
      set_enabled(false);
      Profiler::global().reset();
    }
  }
};

TEST(ObsRegistry, CounterCellsAreStableAndAccumulate) {
  Registry reg;
  Counter& cell = reg.counter("bdd", "gc_runs");
  cell.add();
  cell.add(2);
  EXPECT_EQ(reg.value("bdd", "gc_runs"), 3u);
  // Same path, same cell.
  EXPECT_EQ(&reg.counter("bdd", "gc_runs"), &cell);
  // Unregistered reads are 0, not a registration.
  EXPECT_EQ(reg.value("bdd", "nope"), 0u);
  EXPECT_EQ(reg.snapshot().size(), 1u);
}

TEST(ObsRegistry, SetIsTheGaugePath) {
  Registry reg;
  reg.set("sym", "saturation_sweeps", 7);
  reg.set("sym", "saturation_sweeps", 5);  // overwrite, not accumulate
  EXPECT_EQ(reg.value("sym", "saturation_sweeps"), 5u);
}

TEST(ObsRegistry, SnapshotIsSortedByPath) {
  Registry reg;
  reg.set("sym", "pre_images", 2);
  reg.set("bdd", "gc_runs", 1);
  reg.set("mc/eval", "instructions", 3);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "bdd/gc_runs");
  EXPECT_EQ(snap[1].first, "mc/eval/instructions");
  EXPECT_EQ(snap[2].first, "sym/pre_images");
}

TEST(ObsRegistry, ToJsonWrapsCountersObject) {
  Registry reg;
  reg.set("bdd", "gc_runs", 4);
  reg.set("sym", "frontier_rounds", 11);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"bdd/gc_runs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"sym/frontier_rounds\": 11"), std::string::npos);
}

TEST(ObsRegistry, ResetZeroesButKeepsReferencesValid) {
  Registry reg;
  Counter& cell = reg.counter("a", "b");
  cell.add(9);
  reg.reset();
  EXPECT_EQ(reg.value("a", "b"), 0u);
  cell.add();  // the pre-reset reference still points at the live cell
  EXPECT_EQ(reg.value("a", "b"), 1u);
}

TEST(ObsSpan, DisabledSpanRecordsNothing) {
  if (kCompiledIn) set_enabled(false);
  const std::uint64_t before = Profiler::global().snapshot().size();
  {
    SpanGuard span("test", "disabled");
    EXPECT_EQ(span.elapsed_ns(), 0u);
  }
  EXPECT_EQ(Profiler::global().snapshot().size(), before);
}

TEST_F(ObsRecordingTest, SpansAggregateIntoTheProfileTree) {
  for (int i = 0; i < 2; ++i) {
    SpanGuard outer("engine", "solve");
    { SpanGuard inner("engine", "gc"); }
    { SpanGuard inner("engine", "gc"); }
  }
  const auto snap = Profiler::global().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].label, "engine/solve");
  EXPECT_EQ(snap[0].depth, 0u);
  EXPECT_EQ(snap[0].count, 2u);
  EXPECT_EQ(snap[1].label, "engine/gc");
  EXPECT_EQ(snap[1].depth, 1u);  // nested under solve, aggregated
  EXPECT_EQ(snap[1].count, 4u);
  EXPECT_GE(snap[0].total_ns, snap[1].total_ns);
  EXPECT_EQ(Profiler::global().total_ns(), snap[0].total_ns);
}

TEST_F(ObsRecordingTest, ReportIsPercentOfTotal) {
  {
    SpanGuard outer("ring", "verify");
    SpanGuard inner("ring", "encode");
  }
  const std::string report = Profiler::global().report();
  EXPECT_NE(report.find("ring/verify"), std::string::npos);
  EXPECT_NE(report.find("ring/encode"), std::string::npos);
  EXPECT_NE(report.find('%'), std::string::npos);
  // The root span is 100% of itself.
  EXPECT_NE(report.find("100.00%"), std::string::npos);
}

TEST_F(ObsRecordingTest, MacrosRecordWhenCompiledIn) {
  const std::uint64_t before =
      Registry::global().value("obs_test", "macro_count");
  ICTL_COUNT("obs_test", "macro_count");
  ICTL_COUNT_ADD("obs_test", "macro_count", 2);
  EXPECT_EQ(Registry::global().value("obs_test", "macro_count"), before + 3);
  { ICTL_PROFILE("obs_test", "macro_span"); }
  const auto snap = Profiler::global().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].label, "obs_test/macro_span");
}

TEST_F(ObsRecordingTest, TraceEmitsBalancedPairsWithArgs) {
  std::stringstream out;
  trace_start();
  EXPECT_TRUE(tracing());
  {
    SpanGuard outer("sym", "reach_fixpoint", "parts", 12);
    {
      SpanGuard inner("sym", "saturation_sweep");
      span_arg("rounds", 3);
    }
  }
  const std::size_t events = trace_stop(out);
  EXPECT_FALSE(tracing());
  EXPECT_EQ(events, 4u);  // two spans, one B + one E each
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"reach_fixpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"sym\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"parts\": 12"), std::string::npos);   // B-event arg
  EXPECT_NE(json.find("\"rounds\": 3"), std::string::npos);   // E-event arg
}

TEST_F(ObsRecordingTest, TraceStopRestoresThePriorEnableState) {
  set_enabled(false);
  trace_start();  // arms recording implicitly
  EXPECT_TRUE(enabled());
  { SpanGuard span("t", "s"); }
  std::stringstream out;
  trace_stop(out);
  EXPECT_FALSE(enabled());  // back to the pre-trace state
}

/// Sum of count / total_ns over every profile node labelled `label` (a span
/// aggregates per parent, so one label can sit under several parents).
ProfileEntry profile_total(std::string_view label) {
  ProfileEntry total;
  for (const ProfileEntry& e : Profiler::global().snapshot()) {
    if (e.label != label) continue;
    total.count += e.count;
    total.total_ns += e.total_ns;
  }
  return total;
}

TEST_F(ObsRecordingTest, ProfilerOwnsPerOpcodeTiming) {
  const auto sys = ring::RingSystem::build(4);
  mc::CtlChecker checker(sys.structure());
  for (const auto& [name, f] : ring::section5_specifications())
    EXPECT_TRUE(checker.holds_initially(f)) << name;
  const auto& op_count = checker.eval_stats().op_count;
  for (const eval::OpCode op : {eval::OpCode::kEU, eval::OpCode::kEG}) {
    const std::string label = std::string("eval/") + eval::opcode_name(op);
    const std::uint64_t executed = op_count[static_cast<std::size_t>(op)];
    ASSERT_GT(executed, 0u) << label;
    const ProfileEntry node = profile_total(label);
    EXPECT_EQ(node.count, executed) << label;
    EXPECT_GT(node.total_ns, 0u) << label;
  }
}

TEST_F(ObsRecordingTest, SymbolicImageCountersCountEveryImage) {
  const Registry& global = Registry::global();
  const std::uint64_t posts_before = global.value("sym", "post_images");
  const std::uint64_t sweeps_before = global.value("sym", "saturation_sweeps");
  const auto sym = symbolic::build_symbolic_ring(6);
  static_cast<void>(sym.system->reachable());
  // Each saturation sweep images every part at least once, and each of
  // those images counts as a post-image.
  const std::uint64_t sweeps = global.value("sym", "saturation_sweeps") - sweeps_before;
  ASSERT_GT(sweeps, 0u);
  EXPECT_GE(global.value("sym", "post_images") - posts_before,
            sweeps * sym.system->partition().size());

  // One pre-image per EX and per EU/EG iteration over the Section 5 suite.
  symbolic::CtlChecker checker(sym.system);
  const std::uint64_t pres_before = global.value("sym", "pre_images");
  for (const auto& [name, f] : ring::section5_specifications())
    EXPECT_TRUE(checker.holds_initially(f)) << name;
  const eval::EvalStats& e = checker.eval_stats();
  ASSERT_GT(e.fixpoint_iterations, 0u);
  EXPECT_EQ(global.value("sym", "pre_images") - pres_before,
            e.fixpoint_iterations +
                e.op_count[static_cast<std::size_t>(eval::OpCode::kEX)]);
}

TEST_F(ObsRecordingTest, CorrespondenceSpansCarryTheirWorkCounts) {
  const auto reg = kripke::make_registry();
  const auto m3 = ring::RingSystem::build(3, reg);
  const auto m4 = ring::RingSystem::build(4, reg);
  std::stringstream out;
  trace_start();
  const bisim::IndexedFindResult found =
      bisim::find_indexed_correspondence(m3.structure(), m4.structure(), 3, 4);
  trace_stop(out);
  ASSERT_TRUE(found.corresponds());
  const std::string json = out.str();
  // bisim/degree_fixpoint closes with the evaluation count the result
  // reports; bisim/stuttering_prefilter with its refinement rounds.
  EXPECT_NE(json.find("\"pair_evaluations\": " + std::to_string(found.pair_evaluations)),
            std::string::npos);
  EXPECT_NE(json.find("\"rounds\": "), std::string::npos);
}

/// The compiled core's registry keys under `scope` carry exactly the
/// façade's accessor values.
template <typename Checker>
void expect_core_published(const Registry& registry, const std::string& scope,
                           const Checker& checker) {
  const std::string ev = scope + "/eval";
  const eval::EvalStats& e = checker.eval_stats();
  EXPECT_EQ(registry.value(ev, "programs_run"), e.programs_run);
  EXPECT_EQ(registry.value(ev, "instructions"), e.instructions);
  EXPECT_EQ(registry.value(ev, "leaf_evals"), e.leaf_evals);
  EXPECT_EQ(registry.value(ev, "fixpoint_ops"), e.fixpoint_ops);
  EXPECT_EQ(registry.value(ev, "fixpoint_iterations"), e.fixpoint_iterations);
  EXPECT_EQ(registry.value(ev, "register_high_water"), e.register_high_water);
  for (std::size_t i = 0; i < eval::kNumOpCodes; ++i) {
    const std::string key =
        std::string("op_") + eval::opcode_name(static_cast<eval::OpCode>(i));
    EXPECT_EQ(registry.value(ev, key), e.op_count[i]) << key;
  }
  const std::string co = scope + "/compile";
  const auto& c = checker.compile_stats();
  EXPECT_EQ(registry.value(co, "programs_compiled"), c.programs_compiled);
  EXPECT_EQ(registry.value(co, "cache_hits"), c.cache_hits);
  EXPECT_EQ(registry.value(co, "cse_hits"), c.cse_hits);
  // A run actually happened, so the equalities above are not 0 == 0.
  EXPECT_GT(e.instructions, 0u);
  EXPECT_GT(c.cache_hits, 0u);
}

TEST(ObsBridge, ExplicitFacadePublishesItsAccessors) {
  const auto sys = ring::RingSystem::build(4);
  mc::CtlChecker checker(sys.structure());
  for (const auto& [name, f] : ring::section5_specifications()) {
    EXPECT_TRUE(checker.holds_initially(f)) << name;
    static_cast<void>(checker.program(f));  // a compile-cache hit
  }
  Registry registry;
  checker.publish_stats(registry);
  expect_core_published(registry, "mc", checker);
}

TEST(ObsBridge, SymbolicFacadePublishesItsAccessors) {
  const auto sym = symbolic::build_symbolic_ring(6);
  symbolic::CtlChecker checker(sym.system);
  for (const auto& [name, f] : ring::section5_specifications()) {
    EXPECT_TRUE(checker.holds_initially(f)) << name;
    static_cast<void>(checker.program(f));
  }
  Registry registry;
  checker.publish_stats(registry);
  expect_core_published(registry, "sym", checker);
  const auto peak = sym.system->manager().stats().peak_nodes;
  EXPECT_GT(peak, 0u);
  EXPECT_EQ(registry.value("bdd", "peak_nodes"), peak);
}

TEST(ObsCompiledOut, MacrosAreInertWithoutTheGate) {
  if (kCompiledIn) GTEST_SKIP() << "instrumentation compiled in";
  // The whole surface stays callable with zero recording.
  EXPECT_FALSE(enabled());
  set_enabled(true);
  EXPECT_FALSE(enabled());  // cannot be armed
  trace_start();
  EXPECT_FALSE(tracing());
  { SpanGuard span("t", "s"); }
  std::stringstream out;
  EXPECT_EQ(trace_stop(out), 0u);
  EXPECT_TRUE(Profiler::global().snapshot().empty());
}

}  // namespace
}  // namespace ictl::obs
