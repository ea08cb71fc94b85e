// Microbenchmarks (google-benchmark) for the discovery substrate: stripped
// partition construction and product, exact and approximate TANE, candidate
// generation, and violation detection. These back the §7.2.7 discussion
// that profiling is a preprocessing step whose cost is amortized over the
// interactive session.

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "build_type.h"
#include "core/uguide.h"
#include "reference/fd_theory.h"
#include "reference/hash_detector.h"

namespace uguide {
namespace {

Relation HospitalAtScale(int rows) {
  DataGenOptions opts;
  opts.rows = rows;
  return GenerateHospital(opts);
}

void BM_PartitionForColumn(benchmark::State& state) {
  Relation rel = HospitalAtScale(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Partition::ForColumn(rel, 0));
  }
}
BENCHMARK(BM_PartitionForColumn)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PartitionProduct(benchmark::State& state) {
  Relation rel = HospitalAtScale(static_cast<int>(state.range(0)));
  Partition a = Partition::ForColumn(rel, 3);   // city
  Partition b = Partition::ForColumn(rel, 11);  // measure_code
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Product(b));
  }
}
BENCHMARK(BM_PartitionProduct)->Arg(1000)->Arg(10000)->Arg(50000);

// Sets the counters that say how a walk decided its checks: `checks` is
// every (X, A) pair it decided, `g3_scans` those the key-error bounds left
// open (0 for an exact walk).
void CountChecks(benchmark::State& state, const DiscoveryOutcome& outcome) {
  state.counters["checks"] =
      benchmark::Counter(static_cast<double>(outcome.checks));
  state.counters["g3_scans"] =
      benchmark::Counter(static_cast<double>(outcome.g3_scans));
}

// Reports the peak bytes of partitions a walk held into the BENCH json.
void CountPeak(benchmark::State& state, size_t peak_memory_bytes) {
  state.counters["peak_partition_bytes"] =
      benchmark::Counter(static_cast<double>(peak_memory_bytes));
}

void BM_TaneExact(benchmark::State& state) {
  Relation rel = HospitalAtScale(static_cast<int>(state.range(0)));
  TaneOptions opts;
  opts.max_lhs_size = 3;
  DiscoveryOutcome outcome;
  for (auto _ : state) {
    outcome = DiscoverFdsDetailed(rel, opts).ValueOrDie();
    benchmark::DoNotOptimize(outcome.fds);
  }
  CountPeak(state, outcome.peak_memory_bytes);
  CountChecks(state, outcome);
}
BENCHMARK(BM_TaneExact)->Arg(1000)->Arg(5000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_TaneApproximate(benchmark::State& state) {
  Relation rel = HospitalAtScale(static_cast<int>(state.range(0)));
  TaneOptions opts;
  opts.max_lhs_size = 3;
  opts.max_error = 0.10;
  DiscoveryOutcome outcome;
  for (auto _ : state) {
    outcome = DiscoverFdsDetailed(rel, opts).ValueOrDie();
    benchmark::DoNotOptimize(outcome.fds);
  }
  CountPeak(state, outcome.peak_memory_bytes);
}
BENCHMARK(BM_TaneApproximate)->Arg(1000)->Arg(5000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Thread-scaling sweep on the widest relation (Tax, 15 attributes): the
// BENCH json captures the speedup curve at 1/2/4/8 workers. threads=1 runs
// the serial fallback (no pool workers spawned), so it doubles as the
// regression baseline for the parallel refactor.
void BM_TaneExactThreads(benchmark::State& state) {
  DataGenOptions gen;
  gen.rows = 5000;
  Relation rel = GenerateTax(gen);
  TaneOptions opts;
  opts.max_lhs_size = 3;
  opts.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverFds(rel, opts).ValueOrDie());
  }
}
BENCHMARK(BM_TaneExactThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TaneApproximateThreads(benchmark::State& state) {
  DataGenOptions gen;
  gen.rows = 5000;
  Relation rel = GenerateTax(gen);
  TaneOptions opts;
  opts.max_lhs_size = 3;
  opts.max_error = 0.10;
  opts.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverFds(rel, opts).ValueOrDie());
  }
}
BENCHMARK(BM_TaneApproximateThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CandidateGeneration(benchmark::State& state) {
  Relation rel = HospitalAtScale(static_cast<int>(state.range(0)));
  CandidateGenOptions opts;
  opts.max_lhs_size = 3;
  CandidateSet candidates;
  for (auto _ : state) {
    candidates = GenerateCandidates(rel, opts).ValueOrDie();
    benchmark::DoNotOptimize(candidates.candidates);
  }
  CountPeak(state, candidates.peak_memory_bytes);
}
BENCHMARK(BM_CandidateGeneration)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// Candidate generation as the offline-tax set-up pays it: the dirty Tax
// table at 10,000 rows (systematic errors at 20%), LHS bound 3, one
// worker. `peak_partition_bytes` is the walk's partition working set: both
// frontiers share one partition store and the last level builds no
// partition.
void BM_CandidateGenerationTax(benchmark::State& state) {
  DataGenOptions gen;
  gen.rows = 10000;
  gen.seed = 1;
  const Relation clean = GenerateTax(gen);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = 0.20;
  errors.seed = 2;
  const DirtyDataset dirty =
      InjectErrors(clean, DiscoverFds(clean, tane).ValueOrDie(), errors)
          .ValueOrDie();
  CandidateGenOptions opts;
  opts.max_lhs_size = 3;
  CandidateSet candidates;
  for (auto _ : state) {
    candidates = GenerateCandidates(dirty.dirty, opts).ValueOrDie();
    benchmark::DoNotOptimize(candidates.candidates);
  }
  CountPeak(state, candidates.peak_memory_bytes);
  // The check counts of the one walk GenerateCandidates runs.
  CountChecks(state, DiscoverFdFrontiers(dirty.dirty, tane,
                                         {0.0, opts.relax_threshold})
                         .ValueOrDie()
                         .front());
}
BENCHMARK(BM_CandidateGenerationTax)->Unit(benchmark::kMillisecond);

void BM_ViolatingCells(benchmark::State& state) {
  Relation rel = HospitalAtScale(static_cast<int>(state.range(0)));
  const Fd fd(AttributeSet::Single(0), 1);  // provider -> hospital_name
  for (auto _ : state) {
    benchmark::DoNotOptimize(ViolatingCells(rel, fd));
  }
}
BENCHMARK(BM_ViolatingCells)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_SaturatedSets(benchmark::State& state) {
  Relation rel = HospitalAtScale(2000);
  TaneOptions opts;
  opts.max_lhs_size = 3;
  FdSet fds = DiscoverFds(rel, opts).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SaturatedSets(fds, rel.NumAttributes(), 5000));
  }
}
BENCHMARK(BM_SaturatedSets)->Unit(benchmark::kMillisecond);

void BM_ArmstrongConstruction(benchmark::State& state) {
  Relation rel = HospitalAtScale(2000);
  TaneOptions opts;
  opts.max_lhs_size = 2;
  FdSet fds = DiscoverFds(rel, opts).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildArmstrongRelation(rel.schema(), fds));
  }
}
BENCHMARK(BM_ArmstrongConstruction)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace uguide

// Custom main instead of BENCHMARK_MAIN(): default to machine-readable
// JSON alongside the console table so CI and scaling-curve tooling can
// diff runs without scraping text. The default file is
// BENCH_discovery.fresh.json, so a run from the repo root leaves the
// checked-in baseline alone. Any caller-provided --benchmark_out= wins;
// console output is unchanged either way.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_discovery.fresh.json";
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
  // The JSON's library_build_type describes the benchmark library, not
  // this binary.
  benchmark::AddCustomContext("uguide_build_type", kUguideBuildType);
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
