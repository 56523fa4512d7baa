// The paper's headline, reproduced (with the corrected base case): model
// check the ring of THREE processes — 24 states — and conclude that exactly
// the same closed restricted ICTL* formulas hold in the ring of 1000
// processes, whose global state graph has 1000 * 2^1000 states and could
// never be built.
//
//   $ ./token_ring_1000 [--profile] [--trace=FILE]
//
//   --profile     print the obs percent-of-total profile report at exit
//   --trace=FILE  record a Chrome-trace JSON (chrome://tracing, Perfetto)
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "ictl.hpp"

namespace {

// Phase walltimes through the obs clock (the sanctioned steady clock; raw
// std::chrono use outside src/obs/ and bench/ is a lint error).
double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(ictl::obs::now_ns() - start_ns) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ictl;

  bool profile = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--profile") == 0) {
      profile = true;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
    } else {
      std::fprintf(stderr, "usage: token_ring_1000 [--profile] [--trace=FILE]\n");
      return 2;
    }
  }
  if (!trace_path.empty())
    obs::trace_start();
  else if (profile)
    obs::set_enabled(true);

  core::RingMutexFamily family;
  const std::uint32_t base = ring::kRingBaseSize;  // 3 (the paper says 2; see DESIGN.md)
  const auto base_instance = family.instance(base);

  std::printf("base instance: M_%u with %zu states, %zu transitions\n", base,
              base_instance.num_states(), base_instance.num_transitions());
  std::printf("target M_1000 would have 1000 * 2^1000 ~ 10^304 states\n\n");

  const std::vector<std::uint32_t> sizes = {10, 100, 1000};
  for (const auto& [name, f] : ring::section5_specifications()) {
    obs::SpanGuard span("ring", "verify_for_all");
    const auto result = core::verify_for_all(family, f, base, sizes);
    std::printf("%-36s base:%-5s", name.c_str(),
                result.holds_at_base ? "holds" : "FAILS");
    for (const auto& outcome : result.outcomes) {
      if (outcome.transfers)
        std::printf("  r=%-4u:%s(%s)", outcome.size,
                    outcome.verdict ? "holds" : "FAILS",
                    core::to_string(outcome.certificate.method).c_str());
      else
        std::printf("  r=%-4u:no-transfer", outcome.size);
    }
    std::printf("\n");
  }

  std::printf("\nwhy the transfer is sound:\n");
  const auto cert = ring::analytic_ring_certificate(1000);
  for (const auto& note : cert.notes) std::printf("  * %s\n", note.c_str());

  std::printf("\ncross-validation: explicit clause-checked certificates for small r\n");
  auto reg = kripke::make_registry();
  const auto m3 = ring::RingSystem::build(3, reg);
  for (std::uint32_t r = 4; r <= 7; ++r) {
    const auto mr = ring::RingSystem::build(r, reg);
    const auto explicit_cert = ring::explicit_ring_certificate(m3, mr);
    std::printf("  M_3 ~ M_%u: %s (%zu index pairs, all initial degrees 0)\n", r,
                explicit_cert.valid ? "certified" : "FAILED",
                explicit_cert.in_relation.size());
  }

  std::printf("\nthe symbolic engine: direct checks past the explicit r = 24 wall\n");
  std::printf("  (per-phase walltime: encode the partitioned relation / chained-\n"
              "   saturation reachability / exact count / Section 5 checks)\n");
  for (const std::uint32_t r : {32u, 64u, 128u}) {
    // Four DISJOINT phases.  The old hand-rolled chrono version timed
    // "reach" as num_states(), which runs the reachability fixpoint AND the
    // exact SatCount walk — double-counting the count into the reach time.
    // Here reach is the fixpoint alone; the count phase reuses the cached
    // fixpoint and times only the exponent-tracked counting.
    std::uint64_t t0 = obs::now_ns();
    symbolic::SymbolicRing sym = [&] {
      obs::SpanGuard span("ring", "encode", "r", r);
      return symbolic::build_symbolic_ring(r);
    }();
    const double encode_ms = ms_since(t0);

    t0 = obs::now_ns();
    {
      obs::SpanGuard span("ring", "reach", "r", r);
      static_cast<void>(sym.system->reachable());
    }
    const double reach_ms = ms_since(t0);

    t0 = obs::now_ns();
    // Exact, exponent-tracked count: r * 2^r is past double precision from
    // r = 54 on, so the decimal rendering below is the real integer.
    const symbolic::SatCount reachable = [&] {
      obs::SpanGuard span("ring", "count", "r", r);
      return sym.system->num_states();
    }();
    const double count_ms = ms_since(t0);

    t0 = obs::now_ns();
    symbolic::CtlChecker checker(sym.system);
    bool p2 = false;
    bool i3 = false;
    {
      obs::SpanGuard span("ring", "check", "r", r);
      p2 = checker.holds_initially(ring::property_critical_implies_token());
      i3 = checker.holds_initially(ring::invariant_one_token());
    }
    const double check_ms = ms_since(t0);
    std::printf(
        "  M_%-3u reachable: %s (= r * 2^r, exact), relation: %zu nodes in %zu parts\n"
        "        encode %.0f ms | reach %.0f ms | count %.0f ms | "
        "check P2+I3 %.0f ms (%s, %s) | peak %zu nodes\n",
        r, reachable.to_decimal_string().c_str(),
        sym.system->relation_node_count(), sym.system->partition().size(),
        encode_ms, reach_ms, count_ms, check_ms, p2 ? "holds" : "FAILS",
        i3 ? "holds" : "FAILS", sym.system->manager().stats().peak_nodes);
  }
  std::printf("  (certificate transfer above concluded P2/I3 for ALL r; the\n"
              "   symbolic fixpoints now cross-check sizes no enumeration could)\n");

  std::printf("\npersistence: the M_64 relation + fixpoint, saved and reloaded\n");
  {
    const auto sym = symbolic::build_symbolic_ring(64);
    static_cast<void>(sym.system->num_states());
    std::stringstream blob;
    symbolic::save_transition_system(*sym.system, blob);
    const std::uint64_t t0 = obs::now_ns();
    const auto loaded =
        symbolic::load_transition_system(blob, sym.system->registry());
    const double load_ms = ms_since(t0);
    std::printf("  %zu bytes; reloaded in %.1f ms; %s states "
                "(adopted fixpoint, nothing recomputed)\n",
                blob.str().size(), load_ms,
                loaded.num_states().to_decimal_string().c_str());
  }

  std::printf("\nthe paper's own base case, mechanically re-examined:\n");
  const auto m2 = ring::RingSystem::build(2, reg);
  const auto m4 = ring::RingSystem::build(4, reg);
  const auto paper_cert = ring::explicit_ring_certificate(m2, m4);
  std::printf("  M_2 ~ M_4: %s\n", paper_cert.valid ? "certified" : "FAILED");
  if (!paper_cert.notes.empty())
    std::printf("    (%s)\n", paper_cert.notes.front().c_str());
  std::printf("  witness: %s\n",
              logic::to_string(ring::distinguishing_formula()).c_str());
  std::printf("  M_2: %s   M_4: %s   (a closed restricted formula!)\n",
              mc::holds(m2.structure(), ring::distinguishing_formula()) ? "true"
                                                                        : "false",
              mc::holds(m4.structure(), ring::distinguishing_formula()) ? "true"
                                                                        : "false");

  if (!trace_path.empty()) {
    const std::size_t events = obs::trace_stop_to_file(trace_path);
    std::printf("\ntrace: %zu events -> %s\n", events, trace_path.c_str());
  }
  if (profile) std::printf("\n%s", obs::Profiler::global().report().c_str());
  return 0;
}
