// offline-tax: the paper-experiment path in-process over the Tax generator.
//
// Set-up is the offline phase (Session::Create plus the base violation-graph
// build), repeated and reported as a median. A reference pass through the
// library's own driver (Session::Run) warms caches and fixes the expected
// report bytes; the measured pass then runs all eleven strategies in whole
// rounds through SessionStateMachine with a private engine each, exactly as
// Session::Run drives them, timing every step from outside. Every report
// must match the reference bytes and the digest pinned for its strategy in
// perfbench/pinned_reports.txt.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/session_state.h"
#include "datagen/generators.h"
#include "discovery/tane.h"
#include "driver/workloads.h"
#include "server/protocol.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_engine.h"

namespace perfbench {

using uguide::Session;

namespace {

constexpr int kTaxRows = 10000;
constexpr double kBudget = 200.0;
constexpr double kErrorRate = 0.20;
/// LHS bound of every discovery pass, as in the served recipe and the
/// figure benches.
constexpr int kMaxLhs = 3;
/// Worker threads of every pool the workload creates (fixed, <= nproc).
constexpr int kThreads = 1;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Sizes the fixed amount of measured work: a run measures about --seconds
/// × this many sessions (whole rounds). Set from the rate measured on a
/// 4-vCPU VM, so a run lasts about --seconds there.
constexpr double kSessionsPerS = 2.2;
/// Seed of the Tax instance. The table is fixed; the benchmark seed picks
/// the strategy order of every round (see README.md, "Seeds").
constexpr uint64_t kDataSeed = 1;

double ProcessCpuMsSelf() {
  rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

struct TaxInput {
  uguide::Relation clean;
  uguide::DirtyDataset dirty;
  uguide::SessionConfig config;
};

/// Generates the clean Tax table and injects systematic errors (benchmark
/// input preparation; not timed).
TaxInput MakeTaxInput() {
  const uint64_t seed = kDataSeed;
  uguide::DataGenOptions data;
  data.rows = kTaxRows;
  data.seed = seed;
  uguide::Relation clean = uguide::GenerateTax(data);

  uguide::SessionConfig config;
  config.budget = kBudget;
  config.candidate_options.num_threads = kThreads;
  config.candidate_options.max_lhs_size = kMaxLhs;
  config.expert_seed = seed + 2;

  uguide::TaneOptions tane;
  tane.max_lhs_size = config.candidate_options.max_lhs_size;
  uguide::FdSet true_fds = uguide::DiscoverFds(clean, tane).ValueOrDie();
  uguide::ErrorGenOptions errors;
  errors.model = uguide::ErrorModel::kSystematic;
  errors.error_rate = kErrorRate;
  errors.seed = seed + 1;
  uguide::DirtyDataset dirty =
      uguide::InjectErrors(clean, true_fds, errors).ValueOrDie();
  return TaxInput{std::move(clean), std::move(dirty), config};
}

struct Setup {
  std::optional<Session> session;
  double seconds = 0.0;
};

/// The offline phase as a user pays it: Session::Create plus the base graph
/// build over a fresh engine.
Setup RunSetup(const TaxInput& input) {
  Setup setup;
  const auto start = Clock::now();
  setup.session.emplace(
      Session::Create(input.clean, input.dirty, input.config).ValueOrDie());
  uguide::ViolationEngine engine(&setup.session->dirty());
  uguide::ThreadPool pool(kThreads);
  uguide::ViolationGraph graph = uguide::ViolationGraph::Build(
      engine, setup.session->candidates(), &pool);
  setup.seconds = MsBetween(start, Clock::now()) / 1e3;
  return setup;
}

/// Expected report bytes per strategy, from the library's own driver.
std::map<std::string, std::string> ReferenceReports(const Session& session) {
  std::map<std::string, std::string> reports;
  for (const std::string& name : uguide::KnownStrategyNames()) {
    auto strategy = uguide::MakeStrategyByName(name).ValueOrDie();
    reports[name] = uguide::SerializeSessionReport(session.Run(*strategy));
  }
  return reports;
}

/// Runs every strategy once, in round `round`'s seeded order.
std::vector<DrivenSession> RunRound(const Session& session, Tracer& tracer,
                                    uint64_t seed, int round_index,
                                    int64_t* next_id) {
  std::vector<std::string> names = uguide::KnownStrategyNames();
  uguide::Rng rng(seed * 0x9e3779b97f4a7c15ULL +
                  static_cast<uint64_t>(round_index));
  rng.Shuffle(names);
  std::vector<DrivenSession> round;
  for (const std::string& name : names) {
    round.push_back(DriveStepped(session, name, kBudget, tracer,
                                 (*next_id)++));
  }
  return round;
}

/// The reports of `sessions`, keyed by strategy, for CheckReports.
std::vector<ReportToCheck> ToCheck(const std::vector<DrivenSession>& sessions) {
  std::vector<ReportToCheck> out;
  for (const DrivenSession& s : sessions) {
    out.push_back(ReportToCheck{"session " + std::to_string(s.id) + " (" +
                                    s.strategy + ")",
                                s.strategy, s.report, s.error});
  }
  return out;
}

void RunMeasured(const RunOptions& options, const TaxInput& input,
                 const std::map<std::string, uint64_t>& pinned,
                 RunResult* result) {
  std::vector<double> setups;
  std::optional<Session> session;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    Setup setup = RunSetup(input);
    setups.push_back(setup.seconds);
    session = std::move(setup.session);
  }
  const std::map<std::string, std::string> reference =
      ReferenceReports(*session);
  WriteDigests(options.out_dir + "/report_digests.txt", options.workload,
               reference);

  // A fixed amount of work sized from --seconds: whole rounds of the 11
  // strategies.
  const int rounds = std::max(
      1, static_cast<int>(options.seconds * kSessionsPerS / 11 + 0.5));
  Tracer off(false);
  int64_t next_id = 0;
  std::vector<DrivenSession> sessions;
  const double cpu_start = ProcessCpuMsSelf();
  const auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    std::vector<DrivenSession> round =
        RunRound(*session, off, options.seed, r, &next_id);
    sessions.insert(sessions.end(), round.begin(), round.end());
  }
  const double elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  const double cpu_ms = ProcessCpuMsSelf() - cpu_start;
  const double peak_rss = ProcessPeakRssMb(static_cast<int>(::getpid()));

  const int64_t bad = CheckReports(ToCheck(sessions), reference, pinned, result);

  std::vector<double> first, answers, reports;
  for (const DrivenSession& s : sessions) {
    if (s.init_ms >= 0) first.push_back(s.init_ms);
    answers.insert(answers.end(), s.select_ms.begin(), s.select_ms.end());
    reports.push_back(s.finish_ms);
  }
  if (!PercentileSupported(answers.size(), 99.0)) {
    result->Invalidate("too few answers for answer_ms_p99: " +
                       std::to_string(answers.size()));
    return;
  }
  const double n = static_cast<double>(sessions.size());
  result->Note("sessions=" + std::to_string(sessions.size()) + " in " +
               std::to_string(rounds) + " round(s) of 11 over " +
               std::to_string(elapsed_s) + " s");
  AddSampleNote(result, "first_question_ms", first);
  AddSampleNote(result, "answer_ms", answers);
  AddSampleNote(result, "report_ms", reports);

  result->Add("setup_s", Percentile(setups, 50), "s");
  result->Add("sessions_per_s", n / elapsed_s, "1/s");
  result->Add("cpu_ms_per_session", cpu_ms / n, "ms");
  result->Add("first_question_ms_p50", Percentile(first, 50), "ms");
  result->Add("answer_ms_p50", Percentile(answers, 50), "ms");
  result->Add("answer_ms_p90", Percentile(answers, 90), "ms");
  result->Add("answer_ms_p99", Percentile(answers, 99), "ms");
  result->Add("report_ms_p50", Percentile(reports, 50), "ms");
  result->Add("ok_ops_frac", (n - static_cast<double>(bad)) / n, "frac");
  result->Add("peak_rss_mb", peak_rss, "MB");
}

void RunTraced(const RunOptions& options, const TaxInput& input,
               const std::map<std::string, uint64_t>& pinned,
               RunResult* result) {
  Tracer tracer(true);
  const int root = tracer.Begin("bench.setup", -1, -1);

  auto start = Clock::now();
  uguide::TaneOptions tane;
  tane.max_lhs_size = input.config.candidate_options.max_lhs_size;
  tane.num_threads = kThreads;
  uguide::DiscoveryOutcome discovered =
      uguide::DiscoverFdsDetailed(input.clean, tane).ValueOrDie();
  const double tane_ms = MsBetween(start, Clock::now());
  tracer.Record("discovery.tane", start, Clock::now(), root, -1);

  start = Clock::now();
  uguide::CandidateSet candidates =
      uguide::GenerateCandidates(input.dirty.dirty,
                                 input.config.candidate_options)
          .ValueOrDie();
  const double candidate_ms = MsBetween(start, Clock::now());
  tracer.Record("candidate_gen.generate", start, Clock::now(), root, -1);

  start = Clock::now();
  Session session =
      Session::Create(input.clean, input.dirty, input.config).ValueOrDie();
  const double create_ms = MsBetween(start, Clock::now());
  tracer.Record("session.create", start, Clock::now(), root, -1);

  uguide::ViolationEngine engine(&session.dirty());
  uguide::ThreadPool pool(kThreads);
  start = Clock::now();
  uguide::ViolationGraph graph =
      uguide::ViolationGraph::Build(engine, session.candidates(), &pool);
  const double graph_ms = MsBetween(start, Clock::now());
  tracer.Record("violations.graph_build", start, Clock::now(), root, -1);
  tracer.End(root);
  int64_t edges = 0;
  for (int f = 0; f < graph.NumFds(); ++f) {
    edges += static_cast<int64_t>(graph.CellsOfFd(f).size());
  }

  const std::map<std::string, std::string> reference =
      ReferenceReports(session);

  // The same round untraced, then traced: the wall-time difference is the
  // tracing overhead.
  Tracer off(false);
  int64_t next_id = 0;
  start = Clock::now();
  std::vector<DrivenSession> plain =
      RunRound(session, off, options.seed, 0, &next_id);
  const double plain_ms = MsBetween(start, Clock::now());
  start = Clock::now();
  std::vector<DrivenSession> traced =
      RunRound(session, tracer, options.seed, 0, &next_id);
  const double traced_ms = MsBetween(start, Clock::now());
  CheckReports(ToCheck(plain), reference, pinned, result);
  CheckReports(ToCheck(traced), reference, pinned, result);

  result->Add("discovery.tane_ms", tane_ms, "ms");
  result->Add("discovery.fds", static_cast<double>(discovered.fds.Size()),
              "count");
  result->Add("discovery.levels", discovered.levels_completed, "count");
  result->Add("candidate_gen.ms", candidate_ms, "ms");
  result->Add("candidate_gen.candidates",
              static_cast<double>(candidates.candidates.Size()), "count");
  result->Add("session.create_ms", create_ms, "ms");
  result->Add("session.true_violations",
              static_cast<double>(session.true_violations().Size()), "count");
  result->Add("violations.graph_build_ms", graph_ms, "ms");
  result->Add("violations.graph_edges", static_cast<double>(edges), "count");
  result->Add("violations.graph_cells", graph.NumCells(), "count");
  result->Add("violations.graph_mb",
              static_cast<double>(graph.ApproxMemoryBytes()) / (1 << 20),
              "MB");
  AddStrategyLayerMetrics(traced, result);

  const std::vector<Span> spans = tracer.spans();
  AddTraceMetrics(spans, plain_ms, traced_ms, result);
  tracer.WriteJsonLines(options.out_dir + "/spans.jsonl");
}

}  // namespace

void RunOfflineTax(const RunOptions& options, RunResult* result) {
  std::map<std::string, uint64_t> pinned;
  if (!LoadPins(options, &pinned, result)) return;
  const TaxInput input = MakeTaxInput();
  if (options.trace) {
    RunTraced(options, input, pinned, result);
  } else {
    RunMeasured(options, input, pinned, result);
  }
}

}  // namespace perfbench
