// verdict_bench: the repository's end-to-end benchmark.
//
// It asks the paper's one question -- does property f hold for a ring of r
// identical processes? -- as a closed loop: one client, one thread, one query
// at a time, each query cold (a fresh BddManager, structure and checker), each
// verdict compared with a known answer that does not come from the engine
// under test.  Four kinds of query stress different layers:
//
//   reach     build_symbolic_ring(r) -> reachable() -> num_states() ->
//             P2 and I3 through symbolic::CtlChecker
//   ctl       the same, then the full Section 5 suite plus
//             distinguishing_formula() through symbolic::CtlChecker
//   check     the ictl_check library path: parse_structure, then per
//             formula parse_formula -> check_indexed -> explain
//   transfer  the paper's method: certify M_base ~ M_r with
//             explicit_ring_certificate, check at the base, transfer
//
// The "symbolic" workload runs reach and ctl queries, the "explicit" workload
// check and transfer queries.  Every round holds one query per size of the
// workload, in an order drawn from --seed; the timed phase runs whole rounds
// until --seconds have passed, so each size contributes equally to every
// statistic.  The last line of
// standard output is the JSON result; the lines before it print every metric
// by name with its unit, the build and the digest of the query list.
//
// Usage: verdict_bench --workload NAME --seed N --seconds S --trace 0|1
//                      [--trip-every K] [--revision REV]
// Exit codes: 0 ok, 2 usage error, 3 wrong answer, 4 set-up error; no result
// line unless 0.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ictl.hpp"

namespace {

using namespace ictl;

// ---- Known answers ----------------------------------------------------------
//
// The oracle is the paper's Section 5 analysis, not an engine: the formulas
// below are written out here, and each carries the verdict the paper (or the
// reproduction's base-case finding) fixes for M_r.

/// Raised when a verdict disagrees with its known answer.  Deliberately not an
/// std::exception, so no failure handler can count it as an ordinary failure.
struct WrongAnswer {
  std::string what;
};

[[noreturn]] void wrong(const std::string& what) { throw WrongAnswer{what}; }

// The Section 5 specifications (closed restricted ICTL*; hold for every r >= 2).
constexpr const char* kSpecP1 =
    "!(exists i. EF(!d[i] & !t[i] & E[(!d[i] & !t[i]) U t[i]]))";
constexpr const char* kSpecP2 = "forall i. AG (c[i] -> t[i])";
constexpr const char* kSpecP3 = "forall i. AG (d[i] -> A[d[i] U t[i]])";
constexpr const char* kSpecP4 = "forall i. AG (d[i] -> AF c[i])";
constexpr const char* kSpecI2 = "forall i. AG (d[i] -> !E[d[i] U (!d[i] & !t[i])])";
constexpr const char* kSpecI3 = "AG (one t)";
// Holds exactly when r >= 3: M_2 is not equivalent to the larger rings.
constexpr const char* kDistinguishing =
    "exists i. EF(d[i] & !E[d[i] U (c[i] & E[c[i] U (n[i] & t[i])])])";

/// The trace mc::explain must produce for a formula, checked here against
/// the parsed structure rather than by the engine's own validator.
enum class Evidence : std::uint8_t {
  kNone,   ///< no trace expected
  kReach,  ///< a path from the initial state ending in a prop[index] state
  kAvoid,  ///< a lasso from the initial state that never meets prop[index]
};

struct FormulaCase {
  std::string text;
  bool expected = false;  ///< known verdict at the initial state
  Evidence evidence = Evidence::kNone;
  char prop = 0;  ///< 'c' or 'd': the proposition the evidence concerns
  std::uint32_t index = 0;
};

/// The known verdict of a closed formula on M_r.
bool closed_holds(const std::string& text, std::uint32_t r) {
  return text != kDistinguishing || r >= 3;
}

std::vector<FormulaCase> closed_cases(std::uint32_t r) {
  std::vector<FormulaCase> cases;
  for (const char* text :
       {kSpecP1, kSpecP2, kSpecP3, kSpecP4, kSpecI2, kSpecI3, kDistinguishing})
    cases.push_back({text, closed_holds(text, r), Evidence::kNone, 0, 0});
  return cases;
}

/// Single-process CTL formulas about process k, with the verdicts the ring's
/// rules force from s0 = (D = {}, N = {2..r}, T = {1}, C = {}):
///   * every process can be handed the token and enter C (EF c[k]), so AG !c[k]
///     fails with a path to a c[k] state as its counterexample;
///   * no process is forced into C: some holder can toggle T <-> C forever with
///     nobody delayed, so AF c[k] fails with an EG !c[k] lasso;
///   * nobody ever has to request, so EG !d[k] holds with a lasso witness;
///   * the Section 5 properties P2 and P4, instantiated at k, hold.
FormulaCase instance_case(std::uint32_t template_id, std::uint32_t k) {
  const std::string i = std::to_string(k);
  switch (template_id % 6) {
    case 0:
      return {"AG (c[" + i + "] -> t[" + i + "])", true, Evidence::kNone, 0, 0};
    case 1:
      return {"AG (d[" + i + "] -> AF c[" + i + "])", true, Evidence::kNone, 0, 0};
    case 2:
      return {"AG !c[" + i + "]", false, Evidence::kReach, 'c', k};
    case 3:
      return {"AF c[" + i + "]", false, Evidence::kAvoid, 'c', k};
    case 4:
      return {"EF c[" + i + "]", true, Evidence::kReach, 'c', k};
    default:
      return {"EG !d[" + i + "]", true, Evidence::kAvoid, 'd', k};
  }
}

/// r * 2^r in decimal, by schoolbook doubling -- independent of SatCount.
std::string ring_state_count_decimal(std::uint32_t r) {
  std::vector<int> digits{1};  // little-endian
  const auto times = [&digits](int factor) {
    int carry = 0;
    for (int& d : digits) {
      const int v = d * factor + carry;
      d = v % 10;
      carry = v / 10;
    }
    for (; carry > 0; carry /= 10) digits.push_back(carry % 10);
  };
  for (std::uint32_t i = 0; i < r; ++i) times(2);
  times(static_cast<int>(r));
  std::string out;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it)
    out.push_back(static_cast<char>('0' + *it));
  return out;
}

/// Checks an explanation against the case's expected evidence, using only the
/// structure's edges and labels.
void validate_evidence(const kripke::Structure& m, const FormulaCase& fc,
                       const std::optional<mc::Explanation>& e) {
  if (fc.evidence == Evidence::kNone) return;
  if (!e) wrong("no trace for " + fc.text);
  const auto want = fc.expected ? mc::WitnessKind::kWitness : mc::WitnessKind::kCounterexample;
  if (e->kind != want) wrong("wrong trace kind for " + fc.text);
  const auto& states = e->trace.states;
  if (states.empty() || states.front() != m.initial())
    wrong("trace for " + fc.text + " does not start at the initial state");
  const auto edge = [&m](kripke::StateId a, kripke::StateId b) {
    const auto succ = m.successors(a);
    return std::find(succ.begin(), succ.end(), b) != succ.end();
  };
  for (std::size_t i = 0; i + 1 < states.size(); ++i)
    if (!edge(states[i], states[i + 1])) wrong("trace for " + fc.text + " leaves the relation");
  const auto prop = m.registry()->find_indexed(std::string(1, fc.prop), fc.index);
  if (!prop) wrong("structure lacks the proposition of " + fc.text);
  if (fc.evidence == Evidence::kReach) {
    if (!m.has_prop(states.back(), *prop)) wrong("trace for " + fc.text + " misses its target");
    return;
  }
  if (!e->trace.cycle_start || *e->trace.cycle_start >= states.size() ||
      !edge(states.back(), states[*e->trace.cycle_start]))
    wrong("trace for " + fc.text + " is not a lasso");
  for (const kripke::StateId s : states)
    if (m.has_prop(s, *prop)) wrong("lasso for " + fc.text + " meets its proposition");
}

// ---- Spans and counters (the traced run's ledger) ---------------------------

/// Self time per layer span.  A span's self time is its duration minus the
/// time its child spans cover; the root span of a query is "query", so its
/// self time is the part of the query no layer span claims.
class Ledger {
 public:
  void open() { covered_.push_back(0); }
  void close(const std::string& name, std::uint64_t ns) {
    self_ns_[name] += ns - covered_.back();
    covered_.pop_back();
    if (covered_.empty())
      root_ns_ += ns;
    else
      covered_.back() += ns;
  }
  [[nodiscard]] double total_ms(const std::string& name) const {
    const auto it = self_ns_.find(name);
    return it == self_ns_.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
  }
  /// Summed duration of the outermost spans.
  [[nodiscard]] double root_ms() const { return static_cast<double>(root_ns_) / 1e6; }

  std::uint64_t parse_bytes = 0;  ///< structure text handed to kripke::parse_structure

 private:
  std::vector<std::uint64_t> covered_;
  std::map<std::string, std::uint64_t> self_ns_;
  std::uint64_t root_ns_ = 0;
};

class Span {
 public:
  Span(Ledger* ledger, const char* name) : ledger_(ledger), name_(name) {
    if (ledger_ != nullptr) {
      ledger_->open();
      start_ = obs::now_ns();
    }
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->close(name_, obs::now_ns() - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
  const char* name_;
  std::uint64_t start_ = 0;
};

/// Counter totals over the ledger round: sums, plus high-water marks.
struct Tally {
  std::map<std::string, double> sum;
  double peak_nodes = 0;
  double live_at_peak = 0;  ///< live nodes at the end of the peak query
  double register_high_water = 0;

  void add(const std::string& name, double v) { sum[name] += v; }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  }

  void add_manager(const symbolic::BddManager& mgr) {
    const auto& s = mgr.stats();
    add("bdd.nodes_created", static_cast<double>(s.unique_misses));
    add("bdd.unique_hits", static_cast<double>(s.unique_hits));
    add("bdd.unique_lookups", static_cast<double>(s.unique_hits + s.unique_misses));
    add("bdd.cache_hits", static_cast<double>(s.cache_hits));
    add("bdd.cache_lookups", static_cast<double>(s.cache_hits + s.cache_misses));
    add("bdd.cache_evictions", static_cast<double>(s.cache_evictions));
    add("bdd.gc_runs", static_cast<double>(s.gc_runs));
    if (static_cast<double>(s.peak_nodes) > peak_nodes) {
      peak_nodes = static_cast<double>(s.peak_nodes);
      live_at_peak = static_cast<double>(mgr.live_nodes());
    }
  }

  void add_checker(const symbolic::CtlChecker& checker) {
    const auto& e = checker.eval_stats();
    add("eval.instructions", static_cast<double>(e.instructions));
    add("eval.fixpoint_iterations", static_cast<double>(e.fixpoint_iterations));
    add("eval.cse_hits", static_cast<double>(checker.compile_stats().cse_hits));
    register_high_water = std::max(register_high_water,
                                   static_cast<double>(e.register_high_water));
  }
};

/// Registry counters read as deltas around each ledger-round query:
/// (registry scope, registry name, metric name).
constexpr const char* kRegistryCounters[][3] = {
    {"sym", "saturation_sweeps", "ts.saturation_sweeps"},
    {"sym", "post_images", "ts.post_images"},
    {"sym", "frontier_rounds", "ts.frontier_rounds"},
    {"sym", "pre_images", "sym.pre_images"},
    {"kripke", "pre_images", "mc.pre_images"},
    {"kripke", "post_images", "mc.post_images"},
    {"rt", "budget_trips", "rt.budget_trips"},
};

/// What a query records when traced: spans always, counters only during the
/// ledger round.
struct Probe {
  Ledger* ledger = nullptr;
  Tally* tally = nullptr;
};

// ---- Workloads --------------------------------------------------------------

enum class Kind : std::uint8_t { kSymReach, kSymCtl, kExplicit, kTransfer };

struct Size {
  Kind kind;
  std::uint32_t base;  ///< transfer: size of the base ring
  std::uint32_t r;
};

struct WorkloadSpec {
  const char* name;
  /// One query per entry per round; within a kind, cheapest first.
  std::vector<Size> sizes;
};

// Whole rounds weight every size equally; the timings are taken per size
// (see end_to_end), so the sizes may be far apart.  Each size keeps a query's
// tables within a core's private 2 MB L2: past it, a table access runs at the
// latency of a DRAM that other tenants of the host share, and their load, not
// the program, sets the time (METRICS.md, Noise).  The four kinds share two
// workloads, so that a run can be long enough to outlast the host's slow
// spells within the time all runs may take.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"symbolic",
       {{Kind::kSymReach, 0, 16},
        {Kind::kSymReach, 0, 20},
        {Kind::kSymReach, 0, 24},
        {Kind::kSymReach, 0, 28},
        {Kind::kSymCtl, 0, 6},
        {Kind::kSymCtl, 0, 8},
        {Kind::kSymCtl, 0, 10}}},
      {"explicit",
       {{Kind::kExplicit, 0, 8},
        {Kind::kExplicit, 0, 9},
        {Kind::kExplicit, 0, 10},
        {Kind::kTransfer, 2, 6},
        {Kind::kTransfer, 3, 6},
        {Kind::kTransfer, 3, 7},
        {Kind::kTransfer, 2, 8},
        {Kind::kTransfer, 3, 8}}},
  };
  return specs;
}

/// Computed-table size of each query's BddManager, 2^14 entries (384 KB), in
/// place of the default 2^18 (6 MB): sized to the instances above.
constexpr std::uint32_t kCacheLog2 = 14;

/// Instantiated single-process formulas per check query, on top of
/// the seven closed ones: enough that checking costs about what parsing does.
constexpr std::uint32_t kExplicitInstances = 128;

/// Set-up repetitions; setup_s is their median.
constexpr std::size_t kSetups = 15;

/// Rounds generated up front; a run that uses them all starts over.
constexpr std::size_t kRounds = 256;

struct Query {
  Size size;
  std::vector<FormulaCase> batch;
};

struct Plan {
  std::vector<std::vector<Query>> rounds;
  std::map<std::uint32_t, std::string> structure_text;  ///< check-query inputs
  std::uint64_t digest = 0;
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t pick(std::mt19937_64& rng, std::uint64_t n) { return rng() % n; }

template <typename T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[pick(rng, i)]);
}

/// The query's kind and size, as in "reach M_16" or "transfer M_3~M_8".
std::string size_label(const Query& q) {
  static constexpr const char* kKindNames[] = {"reach", "ctl", "check", "transfer"};
  const Size& z = q.size;
  return std::string(kKindNames[static_cast<int>(z.kind)]) + " " +
         (z.base > 0 ? "M_" + std::to_string(z.base) + "~" : std::string()) + "M_" +
         std::to_string(z.r);
}

/// The query list for a seed, plus the serialised structures that check queries
/// parse.  Everything the library later receives is generated here.
Plan make_plan(const WorkloadSpec& w, std::uint64_t seed, Ledger* ledger) {
  Plan plan;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  plan.rounds.resize(kRounds);
  for (auto& round : plan.rounds) {
    for (const Size& size : w.sizes) {
      Query q{size, {}};
      const std::uint32_t r = size.r;
      if (size.kind == Kind::kExplicit) {
        q.batch = closed_cases(r);
        for (std::uint32_t j = 0; j < kExplicitInstances; ++j)
          q.batch.push_back(instance_case(j, 1 + static_cast<std::uint32_t>(pick(rng, r))));
        shuffle(q.batch, rng);
      } else if (size.kind == Kind::kTransfer) {
        q.batch = closed_cases(r);
        shuffle(q.batch, rng);
      }
      round.push_back(std::move(q));
    }
    shuffle(round, rng);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& round : plan.rounds)
    for (const Query& q : round) {
      h = fnv1a(h, size_label(q) + ":");
      for (const FormulaCase& fc : q.batch) h = fnv1a(h, fc.text + ";");
    }
  plan.digest = h;
  for (const Size& size : w.sizes) {
    if (size.kind != Kind::kExplicit) continue;
    const std::uint32_t r = size.r;
    std::optional<ring::RingSystem> sys;
    {
      Span span(ledger, "ring.build");
      sys.emplace(ring::RingSystem::build(r));
    }
    Span span(ledger, "kripke.to_text");
    plan.structure_text[r] = kripke::to_text(sys->structure());
  }
  return plan;
}

logic::FormulaPtr parse(Probe& p, const std::string& text) {
  Span span(p.ledger, "logic.parse");
  return logic::parse_formula(text);
}

void check_count(const symbolic::TransitionSystem& system, std::uint32_t r, Probe& p) {
  std::string got;
  {
    Span span(p.ledger, "ts.count");
    got = system.num_states().to_decimal_string();
  }
  Span span(p.ledger, "oracle");
  if (got != ring_state_count_decimal(r))
    wrong("M_" + std::to_string(r) + " has " + got + " reachable states");
}

/// reach and ctl: one cold symbolic direct check of M_r.
void run_symbolic(const Query& q, bool full_suite, Probe& p) {
  symbolic::SymbolicRing ring;
  {
    Span span(p.ledger, "ts.encode");
    ring = symbolic::build_symbolic_ring(
        q.size.r, std::make_shared<symbolic::BddManager>(0, kCacheLog2));
  }
  {
    Span span(p.ledger, "ts.reach");
    static_cast<void>(ring.system->reachable());
  }
  check_count(*ring.system, q.size.r, p);
  symbolic::CtlChecker checker(ring.system);
  const std::vector<FormulaCase> cases =
      full_suite ? closed_cases(q.size.r)
                 : std::vector<FormulaCase>{{kSpecP2, true}, {kSpecI3, true}};
  for (const FormulaCase& fc : cases) {
    const logic::FormulaPtr f = parse(p, fc.text);
    {
      Span span(p.ledger, "sym.compile");
      static_cast<void>(checker.program(f));
    }
    bool holds = false;
    {
      Span span(p.ledger, "sym.eval");
      holds = checker.holds_initially(f);
    }
    if (holds != fc.expected) wrong(fc.text + " on symbolic M_" + std::to_string(q.size.r));
  }
  if (p.tally != nullptr) {
    p.tally->add_manager(ring.system->manager());
    p.tally->add_checker(checker);
    p.tally->add("ts.relation_nodes", static_cast<double>(ring.system->relation_node_count()));
  }
}

/// check: the ictl_check library path over one serialised M_r.
void run_explicit(const Query& q, const Plan& plan, Probe& p) {
  const std::string& text = plan.structure_text.at(q.size.r);
  std::optional<kripke::Structure> m;
  {
    Span span(p.ledger, "kripke.parse");
    m.emplace(kripke::parse_structure(text, kripke::make_registry()));
  }
  if (p.ledger != nullptr) p.ledger->parse_bytes += text.size();
  if (p.tally != nullptr) p.tally->add("kripke.parse_bytes", static_cast<double>(text.size()));
  {
    Span span(p.ledger, "oracle");
    if (m->num_states() != (std::uint64_t{q.size.r} << q.size.r))
      wrong("parsed M_" + std::to_string(q.size.r) + " has " + std::to_string(m->num_states()) +
            " states");
  }
  std::optional<mc::CtlChecker> explainer;
  for (const FormulaCase& fc : q.batch) {
    const logic::FormulaPtr f = parse(p, fc.text);
    bool holds = false;
    {
      Span span(p.ledger, "mc.check");
      holds = mc::check_indexed(*m, f).holds;
    }
    if (holds != fc.expected) wrong(fc.text + " on explicit M_" + std::to_string(q.size.r));
    if (!logic::is_ctl(f)) continue;
    std::optional<mc::Explanation> e;
    {
      Span span(p.ledger, "mc.explain");
      if (!explainer) explainer.emplace(*m);
      e = mc::explain(*explainer, f, m->initial());
    }
    Span span(p.ledger, "oracle");
    validate_evidence(*m, fc, e);
  }
}

/// transfer: check M_base, certify M_base ~ M_r, transfer each verdict.
void run_transfer(const Query& q, Probe& p) {
  const auto registry = kripke::make_registry();
  std::optional<ring::RingSystem> base;
  std::optional<ring::RingSystem> target;
  {
    Span span(p.ledger, "ring.build");
    base.emplace(ring::RingSystem::build(q.size.base, registry));
    target.emplace(ring::RingSystem::build(q.size.r, registry));
  }
  bisim::Theorem5Certificate cert;
  {
    Span span(p.ledger, "bisim.certify");
    cert = ring::explicit_ring_certificate(*base, *target);
  }
  // M_2 is not equivalent to M_r for r >= 3; M_3 corresponds to every M_r.
  const bool certifiable = q.size.base >= 3;
  if (cert.valid != certifiable)
    wrong("certificate M_" + std::to_string(q.size.base) + " ~ M_" + std::to_string(q.size.r) +
          (cert.valid ? " is valid" : " is invalid"));
  for (const FormulaCase& fc : q.batch) {
    const logic::FormulaPtr f = parse(p, fc.text);
    bool holds = false;
    {
      Span span(p.ledger, "mc.base_check");
      holds = mc::holds(base->structure(), f);
    }
    if (holds != closed_holds(fc.text, q.size.base)) wrong(fc.text + " on M_" + std::to_string(q.size.base));
    bool transfers = false;
    {
      Span span(p.ledger, "bisim.transfer");
      transfers = cert.transfers(f);
    }
    if (transfers != certifiable || (transfers && holds != fc.expected))
      wrong("transfer of " + fc.text + " from M_" + std::to_string(q.size.base) + " to M_" +
            std::to_string(q.size.r));
  }
}

void run_query(const Query& q, const Plan& plan, Probe& p) {
  Span span(p.ledger, "query");
  switch (q.size.kind) {
    case Kind::kSymReach:
      return run_symbolic(q, false, p);
    case Kind::kSymCtl:
      return run_symbolic(q, true, p);
    case Kind::kExplicit:
      return run_explicit(q, plan, p);
    case Kind::kTransfer:
      return run_transfer(q, p);
  }
}

// ---- Timed phases -----------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// peak_rss_mb is read once this many rounds have run.  The library keeps
/// some memory per query for good (METRICS.md, Known effects), so the peak
/// at the end of a run would follow how many queries the host let it finish;
/// at a fixed round it follows the program alone.
constexpr std::size_t kRssRounds = 32;

struct PhaseResult {
  std::vector<double> query_ms;  ///< completed queries only
  std::map<std::string, std::vector<double>> by_size;  ///< the same, per size
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t recovered = 0;  ///< queries right after a failure that verified
  bool last_failed = false;
  double elapsed_s = 0;
  std::map<std::string, std::uint64_t> failures;  ///< by kind
  std::size_t rounds = 0;
  double rss_mb = 0;  ///< peak resident memory after kRssRounds rounds
};

/// Per-query wall-clock budget: far above any query's time, so the default
/// run fails nothing.
constexpr std::uint64_t kDeadlineNs = 60'000'000'000ULL;

/// Runs one query under its own budget.  Returns false when it failed.
bool governed_query(const Query& q, const Plan& plan, Probe& p, std::uint64_t deadline_ns,
                    PhaseResult& out) {
  try {
    rt::ResourceBudget budget(rt::BudgetLimits{deadline_ns, 0, 0, 0});
    const rt::BudgetScope scope(budget);
    run_query(q, plan, p);
    return true;
  } catch (const BudgetExceeded& e) {
    ++out.failures[std::string("budget-") + to_string(e.kind())];
  } catch (const Interrupted&) {
    ++out.failures["interrupted"];
  } catch (const Error&) {
    ++out.failures["error"];
  } catch (const std::exception&) {
    ++out.failures["exception"];
  }
  return false;
}

/// Runs plan round `i` once, adding to `out`.  With a tally, the round
/// records counters (the ledger round).  With trip_every = K > 0, every K-th
/// query runs under a 1 ns deadline.
void run_round(const Plan& plan, std::size_t i, std::uint64_t trip_every, Ledger* ledger,
               Tally* tally, PhaseResult& out) {
  const std::uint64_t start = obs::now_ns();
  for (const Query& q : plan.rounds[i % plan.rounds.size()]) {
    ++out.attempted;
    const bool trip = trip_every > 0 && out.attempted % trip_every == 0;
    Probe probe{ledger, tally};
    std::vector<std::uint64_t> before;
    if (tally != nullptr)
      for (const auto& c : kRegistryCounters)
        before.push_back(obs::Registry::global().value(c[0], c[1]));
    const std::uint64_t t0 = obs::now_ns();
    const bool ok = governed_query(q, plan, probe, trip ? 1 : kDeadlineNs, out);
    const double ms = static_cast<double>(obs::now_ns() - t0) / 1e6;
    for (std::size_t c = 0; c < before.size(); ++c)
      tally->add(kRegistryCounters[c][2],
                 static_cast<double>(obs::Registry::global().value(kRegistryCounters[c][0],
                                                                   kRegistryCounters[c][1]) -
                                     before[c]));
    if (ok) {
      out.query_ms.push_back(ms);
      out.by_size[size_label(q)].push_back(ms);
      if (out.last_failed) ++out.recovered;
    } else {
      ++out.failed;
    }
    out.last_failed = !ok;
  }
  out.elapsed_s += static_cast<double>(obs::now_ns() - start) / 1e9;
  if (++out.rounds == kRssRounds) out.rss_mb = peak_rss_mb();
}

/// Whole rounds, from round 0, until `seconds` have elapsed.
PhaseResult run_untraced(const Plan& plan, double seconds, std::uint64_t trip_every) {
  PhaseResult out;
  for (std::size_t i = 0; i == 0 || out.elapsed_s < seconds; ++i)
    run_round(plan, i, trip_every, nullptr, nullptr, out);
  if (out.rounds < kRssRounds) out.rss_mb = peak_rss_mb();
  return out;
}

/// The traced run: every round runs twice, untraced and traced, in
/// alternating order, so the overhead compares the same queries at the same
/// time.  Round 0's traced pass is the ledger round.
std::pair<PhaseResult, PhaseResult> run_traced(const Plan& plan, double seconds,
                                               std::uint64_t trip_every, Ledger& ledger,
                                               Tally& tally) {
  PhaseResult untraced;
  PhaseResult traced;
  for (std::size_t i = 0; i == 0 || untraced.elapsed_s + traced.elapsed_s < seconds; ++i)
    for (const bool traced_pass : {i % 2 == 1, i % 2 == 0}) {
      if (traced_pass)
        run_round(plan, i, trip_every, &ledger, i == 0 ? &tally : nullptr, traced);
      else
        run_round(plan, i, trip_every, nullptr, nullptr, untraced);
    }
  return {std::move(untraced), std::move(traced)};
}

// ---- Reporting --------------------------------------------------------------

/// The q-quantile of `v` with linear interpolation between ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  std::cout << "{\"correct\": true, \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

void print_failures(const PhaseResult& r) {
  std::cout << "failed_ratio = "
            << json_number(r.attempted == 0 ? 0.0
                                            : static_cast<double>(r.failed) /
                                                  static_cast<double>(r.attempted))
            << " (" << r.failed << "/" << r.attempted << ")";
  for (const auto& [kind, n] : r.failures) std::cout << " " << kind << "=" << n;
  std::cout << "; verified queries right after a failure: " << r.recovered << "\n";
}

/// The gated timing is query_ms_p2: each size's 2nd-percentile query time,
/// averaged over the round's sizes.  The host's caches and memory are shared,
/// and other tenants' load stretches queries by up to 2x in spells of seconds
/// to minutes; a size's fastest queries are the ones those spells leave
/// alone, so they are what a change to the program moves.  The median, the
/// tail and the throughput follow the spells; they are printed by name but
/// not gated.
std::vector<Metric> end_to_end(const PhaseResult& r, double setup_s) {
  std::vector<double> sorted = r.query_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // The highest percentile with at least ten samples beyond it.
  const std::size_t tail_rank = n > 10 ? n - 11 : 0;
  std::cout << "samples = " << n << "; query_ms_tail is p"
            << json_number(n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
                                  : 0.0)
            << " (rank " << tail_rank + 1 << " of " << n << ", ten samples beyond it)\n";
  double p2_sum = 0;
  for (const auto& [size, ms] : r.by_size) {
    p2_sum += quantile(ms, 0.02);
    std::cout << "query_ms " << size << ": p2 = " << json_number(quantile(ms, 0.02))
              << " ms, p10 = " << json_number(quantile(ms, 0.1))
              << " ms, p50 = " << json_number(quantile(ms, 0.5)) << " ms (" << ms.size()
              << " samples)\n";
  }
  print_failures(r);
  std::cout << "peak_rss_mb is read after round " << std::min(r.rounds, kRssRounds) << " of "
            << r.rounds << "; at the end of the run it is " << json_number(peak_rss_mb())
            << " MB\n";
  const double completed = static_cast<double>(r.attempted - r.failed);
  std::cout << "ungated: queries_per_s = " << json_number(completed / r.elapsed_s)
            << " 1/s; query_ms_p50 = " << json_number(quantile(r.query_ms, 0.5))
            << " ms; query_ms_tail = " << json_number(n == 0 ? 0.0 : sorted[tail_rank])
            << " ms\n";
  return {
      {"setup_s", setup_s, "s"},
      {"query_ms_p2", r.by_size.empty() ? 0.0 : p2_sum / static_cast<double>(r.by_size.size()),
       "ms"},
      {"peak_rss_mb", r.rss_mb, "MB"},
      {"verdict_ratio", completed / static_cast<double>(r.attempted), "ratio"},
  };
}

/// Layer spans the benchmark records around its calls into the library;
/// "oracle" is the benchmark's own answer checking.
constexpr const char* kLayerSpans[] = {
    "ts.encode",   "ts.reach",     "ts.count",      "sym.compile",    "sym.eval",
    "logic.parse", "kripke.parse", "mc.check",      "mc.explain",     "mc.base_check",
    "ring.build",  "bisim.certify", "bisim.transfer", "oracle",
};

/// The per-layer ledger: mean self time per query for every layer span, the
/// unattributed remainder (which sums with them to trace.query_ms), counter
/// totals over the ledger round, and the tracing overhead.
std::vector<Metric> per_layer(const PhaseResult& untraced, const PhaseResult& traced,
                              const Ledger& ledger, const Tally& tally,
                              const Ledger& setup_ledger, std::size_t ledger_queries) {
  const double nq = static_cast<double>(traced.attempted);
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<Metric> out = {
      {"trace.query_ms", ledger.root_ms() / nq, "ms"},
      {"trace.unattributed_ms", ledger.total_ms("query") / nq, "ms"},
      // Both passes ran the same queries: the time ratio is the qps ratio.
      {"trace.overhead_pct", 100.0 * (traced.elapsed_s / untraced.elapsed_s - 1.0), "%"},
  };
  for (const char* span : kLayerSpans)
    out.push_back({std::string(span) + "_ms", ledger.total_ms(span) / nq, "ms"});
  out.push_back({"kripke.parse_mb_per_s",
                 ratio(static_cast<double>(ledger.parse_bytes) / 1e6,
                       ledger.total_ms("kripke.parse") / 1e3),
                 "MB/s"});
  const auto setups = static_cast<double>(kSetups);
  out.push_back({"setup.ring_build_ms", setup_ledger.total_ms("ring.build") / setups, "ms"});
  out.push_back({"setup.to_text_ms", setup_ledger.total_ms("kripke.to_text") / setups, "ms"});
  out.push_back({"ledger.queries", static_cast<double>(ledger_queries), "count"});
  for (const char* name :
       {"ts.saturation_sweeps", "ts.post_images", "ts.frontier_rounds", "ts.relation_nodes",
        "bdd.nodes_created", "bdd.unique_lookups", "bdd.cache_lookups", "bdd.cache_evictions",
        "bdd.gc_runs", "sym.pre_images", "eval.instructions", "eval.fixpoint_iterations",
        "eval.cse_hits", "kripke.parse_bytes", "mc.pre_images", "mc.post_images",
        "rt.budget_trips"})
    out.push_back({name, tally.get(name), "count"});
  out.push_back({"bdd.unique_hit_ratio",
                 ratio(tally.get("bdd.unique_hits"), tally.get("bdd.unique_lookups")), "ratio"});
  out.push_back({"bdd.cache_hit_ratio",
                 ratio(tally.get("bdd.cache_hits"), tally.get("bdd.cache_lookups")), "ratio"});
  out.push_back({"bdd.peak_nodes", tally.peak_nodes, "count"});
  out.push_back({"bdd.live_nodes_end", tally.live_at_peak, "count"});
  out.push_back({"bdd.peak_to_live", ratio(tally.peak_nodes, tally.live_at_peak), "ratio"});
  out.push_back({"eval.register_high_water", tally.register_high_water, "count"});
  return out;
}

// ---- Driver -----------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::cerr << "verdict_bench: " << why
            << "\nusage: verdict_bench --workload NAME --seed N --seconds S --trace 0|1"
               " [--trip-every K] [--revision REV]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage((std::string("bad value for ") + flag).c_str());
  return v;
}

int run(int argc, char** argv) {
  const WorkloadSpec* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool have_seed = false;
  std::uint64_t trip_every = 0;
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& spec : workloads())
        if (spec.name == std::string(value)) w = &spec;
      if (w == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      seed = parse_u64(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_u64(value, "--seconds"));
    } else if (flag == "--trace") {
      trace = parse_u64(value, "--trace") != 0;
    } else if (flag == "--trip-every") {
      trip_every = parse_u64(value, "--trip-every");
    } else if (flag == "--revision") {
      revision = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (w == nullptr || !have_seed || seconds <= 0)
    usage("--workload, --seed and --seconds are required");

  std::cout << "build: compiler=" << ICTL_BENCH_COMPILER << " build_type=" << ICTL_BENCH_BUILD_TYPE
            << " options=" << ICTL_BENCH_OPTIONS
            << " nproc=" << std::thread::hardware_concurrency() << " revision=" << revision
            << "\n";
  std::cout << "workload: " << w->name << " seed=" << seed << " seconds=" << seconds
            << " trace=" << trace << " deadline_ms=" << kDeadlineNs / 1'000'000
            << " client=closed-loop x1\n";

  // Set-up: generate the inputs, serialise, run one discarded warm-up query
  // of each kind (its cheapest size).  Repeated; setup_s is the median.
  Ledger setup_ledger;
  std::vector<double> setup_s;
  Plan plan;
  for (std::size_t k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = obs::now_ns();
    plan = make_plan(*w, seed, trace ? &setup_ledger : nullptr);
    std::map<Kind, const Query*> warm;
    for (const Query& q : plan.rounds.front()) {
      const Query*& cheapest = warm[q.size.kind];
      if (cheapest == nullptr || std::make_pair(q.size.r, q.size.base) <
                                     std::make_pair(cheapest->size.r, cheapest->size.base))
        cheapest = &q;
    }
    Probe none;
    for (const auto& [kind, q] : warm) run_query(*q, plan, none);
    setup_s.push_back(static_cast<double>(obs::now_ns() - t0) / 1e9);
  }
  std::cout << "query_list: rounds=" << plan.rounds.size()
            << " queries_per_round=" << plan.rounds.front().size() << " digest=" << std::hex
            << plan.digest << std::dec << "\nsetup_s runs:";
  for (const double s : setup_s) std::cout << " " << json_number(s);
  std::cout << "\n";

  if (!trace) {
    const PhaseResult r = run_untraced(plan, seconds, trip_every);
    print_result(end_to_end(r, quantile(setup_s, 0.5)), r.attempted, r.failed);
    return 0;
  }
  Ledger ledger;
  Tally tally;
  const auto [untraced, traced] = run_traced(plan, seconds, trip_every, ledger, tally);
  print_failures(traced);
  std::cout << "traced queries = " << traced.attempted << "\n";
  print_result(per_layer(untraced, traced, ledger, tally, setup_ledger, plan.rounds.front().size()),
               traced.attempted, traced.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const WrongAnswer& e) {
    std::cout.flush();
    std::cerr << "verdict_bench: WRONG ANSWER: " << e.what << "\n";
    return 3;
  } catch (const std::exception& e) {  // outside any query: set-up failed
    std::cerr << "verdict_bench: " << e.what() << "\n";
    return 4;
  }
}
