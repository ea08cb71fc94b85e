// Microbenchmarks (google-benchmark) for the interactive questioning path:
// violation-graph construction (hash-grouping baseline vs the shared
// partition-backed engine, serial and parallel), per-question selection for
// the cell strategies (the class selector and class-indexed SUMS fixpoint
// vs the full-rescan reference), detection scoring against E_T, and
// end-to-end sessions across strategies and thread counts. Emits
// BENCH_questioning.fresh.json by default, never the checked-in
// BENCH_questioning.json baseline; the engine benches carry the
// partition-cache hit/miss counters the CI bench-smoke job asserts on.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "build_type.h"
#include "core/uguide.h"
#include "reference/cell_rescan.h"
#include "reference/fd_rescan.h"
#include "reference/hash_detector.h"

namespace uguide {
namespace {

// --- Fixtures ---------------------------------------------------------------

// Dirty Tax table plus its candidate FDs; the paper's widest relation and
// the acceptance target for the graph-build speedup. Built once.
struct TaxFixture {
  Relation dirty;
  FdSet candidates;
};

const TaxFixture& TaxAtScale(int rows) {
  static std::map<int, TaxFixture>* cache = new std::map<int, TaxFixture>();
  auto it = cache->find(rows);
  if (it != cache->end()) return it->second;

  DataGenOptions gen;
  gen.rows = rows;
  Relation clean = GenerateTax(gen);

  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();

  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = 0.10;
  DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();

  CandidateGenOptions cand;
  cand.max_lhs_size = 3;
  CandidateSet set = GenerateCandidates(dataset.dirty, cand).ValueOrDie();

  TaxFixture fixture{std::move(dataset.dirty), std::move(set.candidates)};
  return cache->emplace(rows, std::move(fixture)).first->second;
}

// Ready-to-run Tax session at 5000 rows: the acceptance target for the
// CellQ-HS selection speedup. Built once.
const Session& TaxSession() {
  static Session* session = [] {
    DataGenOptions gen;
    gen.rows = 5000;
    Relation clean = GenerateTax(gen);

    TaneOptions tane;
    tane.max_lhs_size = 3;
    FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();

    ErrorGenOptions errors;
    errors.model = ErrorModel::kSystematic;
    errors.error_rate = 0.10;
    DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();

    SessionConfig config;
    config.candidate_options.max_lhs_size = 3;
    config.budget = 150.0;
    return new Session(
        Session::Create(clean, std::move(dataset), config).ValueOrDie());
  }();
  return *session;
}

// Ready-to-run Hospital session, one per thread count. The session builds
// its violation artifact on the first Session::Run, through a pool of
// candidate_options.num_threads workers.
const Session& HospitalSession(int threads) {
  static std::map<int, Session>* cache = new std::map<int, Session>();
  auto it = cache->find(threads);
  if (it != cache->end()) return it->second;

  DataGenOptions gen;
  gen.rows = 2000;
  Relation clean = GenerateHospital(gen);

  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();

  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = 0.15;
  DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();

  SessionConfig config;
  config.candidate_options.max_lhs_size = 3;
  config.candidate_options.num_threads = threads;
  config.budget = 150.0;
  Session session =
      Session::Create(clean, std::move(dataset), config).ValueOrDie();
  return cache->emplace(threads, std::move(session)).first->second;
}

// --- Violation-graph construction -------------------------------------------

// Baseline: the original per-FD hash-grouping detector, serial. This is
// the pre-engine code path, kept as the test-only BuildReferenceGraph.
void BM_GraphBuildHashBaseline(benchmark::State& state) {
  const TaxFixture& tax = TaxAtScale(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildReferenceGraph(tax.dirty, tax.candidates));
  }
  state.counters["candidate_fds"] =
      benchmark::Counter(static_cast<double>(tax.candidates.Size()));
}
BENCHMARK(BM_GraphBuildHashBaseline)->Arg(2000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// Engine build at 1/2/4/8 threads over a session-lifetime engine: the
// LHS-partition cache is warm after the first iteration, which is exactly
// the per-run reuse contract (graph build, question building, and the
// final evaluation share one engine). The counters expose the cache's
// aggregate hit/miss tallies.
void BM_GraphBuildEngine(benchmark::State& state) {
  const TaxFixture& tax = TaxAtScale(5000);
  const int threads = static_cast<int>(state.range(0));
  ViolationEngine engine(&tax.dirty);
  ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ViolationGraph::Build(engine, tax.candidates, &pool));
  }
  state.counters["partition_hits"] =
      benchmark::Counter(static_cast<double>(engine.partition_hits()));
  state.counters["partition_misses"] =
      benchmark::Counter(static_cast<double>(engine.partition_misses()));
}
BENCHMARK(BM_GraphBuildEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Cold-cache engine build: a fresh engine every iteration isolates what
// the partition formulation buys before any reuse kicks in.
void BM_GraphBuildEngineCold(benchmark::State& state) {
  const TaxFixture& tax = TaxAtScale(5000);
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  for (auto _ : state) {
    ViolationEngine engine(&tax.dirty);
    benchmark::DoNotOptimize(
        ViolationGraph::Build(engine, tax.candidates, &pool));
  }
}
BENCHMARK(BM_GraphBuildEngineCold)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// --- Partition product: CSR vs nested-vector reference -----------------------

// The pre-CSR product (nested-vector layout), reproduced inline as the
// in-tree reference: label tuples by class in `a`, split each class of `b`
// with per-class scratch vectors that allocate as they grow.
std::vector<std::vector<TupleId>> NestedProduct(
    TupleId num_rows, const std::vector<std::vector<TupleId>>& a,
    const std::vector<std::vector<TupleId>>& b) {
  std::vector<int32_t> label(static_cast<size_t>(num_rows), -1);
  for (size_t i = 0; i < a.size(); ++i) {
    for (TupleId t : a[i]) {
      label[static_cast<size_t>(t)] = static_cast<int32_t>(i);
    }
  }
  std::vector<std::vector<TupleId>> scratch(a.size());
  std::vector<std::vector<TupleId>> result;
  for (const auto& cls : b) {
    std::vector<int32_t> touched;
    for (TupleId t : cls) {
      int32_t l = label[static_cast<size_t>(t)];
      if (l < 0) continue;
      if (scratch[static_cast<size_t>(l)].empty()) touched.push_back(l);
      scratch[static_cast<size_t>(l)].push_back(t);
    }
    for (int32_t l : touched) {
      auto& group = scratch[static_cast<size_t>(l)];
      if (group.size() >= 2) result.push_back(group);
      group.clear();
    }
  }
  return result;
}

std::vector<std::vector<TupleId>> NestedClasses(const Partition& p) {
  std::vector<std::vector<TupleId>> classes(p.NumClasses());
  for (size_t i = 0; i < p.NumClasses(); ++i) {
    classes[i] = p.Class(i).ToVector();
  }
  return classes;
}

// The two Tax columns with the largest stripped partitions: the heaviest
// single product the TANE lattice walk and LHS-partition composition pay.
std::pair<int, int> HeaviestTaxColumns(const Relation& dirty) {
  int first = 0, second = 1;
  size_t first_size = 0, second_size = 0;
  for (int col = 0; col < dirty.NumAttributes(); ++col) {
    const size_t size = Partition::ForColumn(dirty, col).StrippedSize();
    if (size > first_size) {
      second = first;
      second_size = first_size;
      first = col;
      first_size = size;
    } else if (size > second_size) {
      second = col;
      second_size = size;
    }
  }
  return {first, second};
}

void BM_PartitionProductCsr(benchmark::State& state) {
  const TaxFixture& tax = TaxAtScale(5000);
  const auto [ca, cb] = HeaviestTaxColumns(tax.dirty);
  const Partition a = Partition::ForColumn(tax.dirty, ca);
  const Partition b = Partition::ForColumn(tax.dirty, cb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Product(b));
  }
  state.counters["stripped_a"] =
      benchmark::Counter(static_cast<double>(a.StrippedSize()));
  state.counters["stripped_b"] =
      benchmark::Counter(static_cast<double>(b.StrippedSize()));
}
BENCHMARK(BM_PartitionProductCsr)->Unit(benchmark::kMillisecond);

void BM_PartitionProductReference(benchmark::State& state) {
  const TaxFixture& tax = TaxAtScale(5000);
  const auto [ca, cb] = HeaviestTaxColumns(tax.dirty);
  const TupleId rows = tax.dirty.NumRows();
  const std::vector<std::vector<TupleId>> a =
      NestedClasses(Partition::ForColumn(tax.dirty, ca));
  const std::vector<std::vector<TupleId>> b =
      NestedClasses(Partition::ForColumn(tax.dirty, cb));
  for (auto _ : state) {
    benchmark::DoNotOptimize(NestedProduct(rows, a, b));
  }
}
BENCHMARK(BM_PartitionProductReference)->Unit(benchmark::kMillisecond);

// --- Per-question selection --------------------------------------------------

// Full strategy runs of the library's selection (one lazy heap over cell
// classes for all four strategies, the class-indexed SUMS fixpoint) and of
// the full-rescan reference (tests/reference/cell_rescan);
// `questions_per_second` normalizes a run by the questions it asked. The
// session's artifact is built before timing starts, so no row's first
// iteration pays for the graph build: the Reference/Incremental ratios
// the questioning gate checks compare selection alone.
void RunStrategyBench(benchmark::State& state, const Session& session,
                          std::unique_ptr<Strategy> strategy) {
  session.artifact();
  int questions = 0;
  for (auto _ : state) {
    SessionReport report = session.Run(*strategy);
    questions = report.result.questions_asked;
    benchmark::DoNotOptimize(report);
  }
  state.counters["questions"] =
      benchmark::Counter(static_cast<double>(questions));
  state.counters["questions_per_second"] = benchmark::Counter(
      static_cast<double>(questions),
      benchmark::Counter::kIsIterationInvariantRate);
}

// Per-answer Estimate-Confidence recomputation.
CellStrategyOptions TightSums() {
  CellStrategyOptions options;
  options.sums_recompute_interval = 1;
  return options;
}

void BM_CellQHittingSetIncremental(benchmark::State& state) {
  RunStrategyBench(state, HospitalSession(1), MakeCellQHittingSet());
}
BENCHMARK(BM_CellQHittingSetIncremental)->Unit(benchmark::kMillisecond);

void BM_CellQHittingSetReference(benchmark::State& state) {
  RunStrategyBench(state, HospitalSession(1), MakeRescanCellQHittingSet());
}
BENCHMARK(BM_CellQHittingSetReference)->Unit(benchmark::kMillisecond);

// Tax@5000: the acceptance target for the CellQ-HS selection speedup on
// the paper's widest relation. tools/check_bench.py gates the
// Reference / Incremental ratio of this pair.
void BM_CellQHittingSetTaxIncremental(benchmark::State& state) {
  RunStrategyBench(state, TaxSession(), MakeCellQHittingSet());
}
BENCHMARK(BM_CellQHittingSetTaxIncremental)->Unit(benchmark::kMillisecond);

void BM_CellQHittingSetTaxReference(benchmark::State& state) {
  RunStrategyBench(state, TaxSession(), MakeRescanCellQHittingSet());
}
BENCHMARK(BM_CellQHittingSetTaxReference)->Unit(benchmark::kMillisecond);

void BM_CellQGreedyIncremental(benchmark::State& state) {
  RunStrategyBench(state, HospitalSession(1), MakeCellQGreedy());
}
BENCHMARK(BM_CellQGreedyIncremental)->Unit(benchmark::kMillisecond);

void BM_CellQGreedyReference(benchmark::State& state) {
  RunStrategyBench(state, HospitalSession(1), MakeRescanCellQGreedy());
}
BENCHMARK(BM_CellQGreedyReference)->Unit(benchmark::kMillisecond);

void BM_CellQSumsIncremental(benchmark::State& state) {
  RunStrategyBench(state, HospitalSession(1), MakeCellQSums());
}
BENCHMARK(BM_CellQSumsIncremental)->Unit(benchmark::kMillisecond);

void BM_CellQSumsReference(benchmark::State& state) {
  RunStrategyBench(state, HospitalSession(1), MakeRescanCellQSums());
}
BENCHMARK(BM_CellQSumsReference)->Unit(benchmark::kMillisecond);

// Per-answer recomputation (interval 1): the most Estimate-Confidence
// calls a run can make, each followed by a re-seed of the class heap. The
// class-indexed fixpoint still walks every active FD's adjacency per
// iteration (four FDs side by side), but its cell side runs once per class
// of cells sharing a flagging-FD list instead of once per cell.
void BM_CellQSumsTightIncremental(benchmark::State& state) {
  RunStrategyBench(state, HospitalSession(1), MakeCellQSums(TightSums()));
}
BENCHMARK(BM_CellQSumsTightIncremental)->Unit(benchmark::kMillisecond);

void BM_CellQSumsTightReference(benchmark::State& state) {
  RunStrategyBench(state, HospitalSession(1),
                       MakeRescanCellQSums(TightSums()));
}
BENCHMARK(BM_CellQSumsTightReference)->Unit(benchmark::kMillisecond);

// Tax@5000: the class-indexed SUMS fixpoint and selection, and the
// class-heap CellQ-Oracle, on the paper's widest relation.
void BM_CellQSumsTax(benchmark::State& state) {
  RunStrategyBench(state, TaxSession(), MakeCellQSums());
}
BENCHMARK(BM_CellQSumsTax)->Unit(benchmark::kMillisecond);

void BM_CellQOracleTax(benchmark::State& state) {
  RunStrategyBench(state, TaxSession(), MakeCellQOracle());
}
BENCHMARK(BM_CellQOracleTax)->Unit(benchmark::kMillisecond);

// FDQ-Oracle on Tax@5000. The library prices the artifact's shared FD
// question pool (built here before timing, as the session's first FD run
// builds it) and keeps each question's uncovered count up to date as
// answers cover cells; the reference (tests/reference/fd_rescan) builds
// its merged questions through the engine on every run and recounts
// every question after each accepted FD.
// tools/check_bench.py gates the Reference / library ratio of this pair.
void BM_FdQOracleTax(benchmark::State& state) {
  TaxSession().artifact().FdQuestions(
      FdStrategyOptions{}.max_merged_candidates);
  RunStrategyBench(state, TaxSession(), MakeFdQOracle());
}
BENCHMARK(BM_FdQOracleTax)->Unit(benchmark::kMillisecond);

void BM_FdQOracleTaxReference(benchmark::State& state) {
  RunStrategyBench(state, TaxSession(), MakeRescanFdQOracle());
}
BENCHMARK(BM_FdQOracleTaxReference)->Unit(benchmark::kMillisecond);

// --- Evaluation --------------------------------------------------------------

// Scores the whole Tax@5000 candidate set against E_T (and the injection
// ledger), the work every session report ends with. The engine's LHS
// partitions are built before timing starts, as a session's shared engine
// has them by the time it evaluates, so the figure is the detection-set
// cost alone: marking the impure classes' cells and counting with word ops.
void BM_EvaluateDetectionsTax(benchmark::State& state) {
  const Session& session = TaxSession();
  ViolationEngine engine(&session.dirty());
  for (const Fd& fd : session.candidates()) engine.LhsPartition(fd.lhs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EvaluateDetections(engine, session.candidates(),
                           session.true_violations(), &session.truth()));
  }
  state.counters["candidate_fds"] =
      benchmark::Counter(static_cast<double>(session.candidates().Size()));
}
BENCHMARK(BM_EvaluateDetectionsTax)->Unit(benchmark::kMillisecond);

// --- End-to-end sessions -----------------------------------------------------

// Whole Session::Run (questioning and final evaluation over the session's
// shared artifact) per strategy family and thread count. The artifact —
// engine, graph build, classes, removal counts — is built by the first
// iteration and reused by the rest, as in any session that runs more
// than once. Thread count must never change the report (equivalence
// suite asserts bit-identical results); here it only sizes that first
// build.
void RunSessionBench(benchmark::State& state,
                     std::unique_ptr<Strategy> strategy) {
  const Session& session = HospitalSession(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SessionReport report = session.Run(*strategy);
    benchmark::DoNotOptimize(report);
  }
}

void BM_SessionCellQHittingSet(benchmark::State& state) {
  RunSessionBench(state, MakeCellQHittingSet());
}
BENCHMARK(BM_SessionCellQHittingSet)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SessionCellQSums(benchmark::State& state) {
  RunSessionBench(state, MakeCellQSums());
}
BENCHMARK(BM_SessionCellQSums)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SessionFdQMaxCoverage(benchmark::State& state) {
  RunSessionBench(state, MakeFdQBudgetedMaxCoverage());
}
BENCHMARK(BM_SessionFdQMaxCoverage)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SessionTupleSamplingViolation(benchmark::State& state) {
  RunSessionBench(state, MakeTupleSamplingViolationWeighting());
}
BENCHMARK(BM_SessionTupleSamplingViolation)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace uguide

// Custom main instead of BENCHMARK_MAIN(): default to machine-readable
// JSON alongside the console table so CI's bench-smoke job and scaling
// tooling can diff runs without scraping text. The default file is
// BENCH_questioning.fresh.json, so a run from the repo root (even
// --benchmark_list_tests) leaves the checked-in baseline alone. Any
// caller-provided --benchmark_out= wins; console output is unchanged
// either way.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_questioning.fresh.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  // The JSON's library_build_type field describes how the *benchmark
  // library* was compiled (the distro package reports debug), not this
  // binary.
  benchmark::AddCustomContext("uguide_build_type", kUguideBuildType);
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
