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

void BM_TaneExact(benchmark::State& state) {
  Relation rel = HospitalAtScale(static_cast<int>(state.range(0)));
  // Unlimited budget: never refuses, but reports the peak working set of
  // governed state into the BENCH json (counter `peak_partition_bytes`).
  MemoryBudget budget;
  TaneOptions opts;
  opts.max_lhs_size = 3;
  opts.memory_budget = &budget;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverFds(rel, opts).ValueOrDie());
  }
  state.counters["peak_partition_bytes"] = benchmark::Counter(
      static_cast<double>(budget.high_water()));
}
BENCHMARK(BM_TaneExact)->Arg(1000)->Arg(5000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_TaneApproximate(benchmark::State& state) {
  Relation rel = HospitalAtScale(static_cast<int>(state.range(0)));
  MemoryBudget budget;
  TaneOptions opts;
  opts.max_lhs_size = 3;
  opts.max_error = 0.10;
  opts.memory_budget = &budget;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverFds(rel, opts).ValueOrDie());
  }
  state.counters["peak_partition_bytes"] = benchmark::Counter(
      static_cast<double>(budget.high_water()));
}
BENCHMARK(BM_TaneApproximate)->Arg(1000)->Arg(5000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Discovery under a binding soft limit: the partition store spills and
// recomputes instead of holding the whole level set resident. The counters
// quantify the memory/CPU trade: peak stays near the limit while evictions
// and recomputes pay for it.
void BM_TaneExactSoftBudget(benchmark::State& state) {
  Relation rel = HospitalAtScale(5000);
  const size_t soft = static_cast<size_t>(state.range(0)) * 1024;
  size_t evicted = 0;
  size_t recomputed = 0;
  size_t peak = 0;
  for (auto _ : state) {
    MemoryBudget budget(soft, /*hard_limit_bytes=*/0);
    TaneOptions opts;
    opts.max_lhs_size = 3;
    opts.memory_budget = &budget;
    DiscoveryOutcome outcome = DiscoverFdsDetailed(rel, opts).ValueOrDie();
    benchmark::DoNotOptimize(outcome.fds);
    evicted = outcome.partitions_evicted;
    recomputed = outcome.partitions_recomputed;
    peak = outcome.peak_memory_bytes;
  }
  state.counters["peak_partition_bytes"] =
      benchmark::Counter(static_cast<double>(peak));
  state.counters["partitions_evicted"] =
      benchmark::Counter(static_cast<double>(evicted));
  state.counters["partitions_recomputed"] =
      benchmark::Counter(static_cast<double>(recomputed));
}
BENCHMARK(BM_TaneExactSoftBudget)->Arg(256)->Arg(1024)->Arg(4096)
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
  MemoryBudget budget;
  CandidateGenOptions opts;
  opts.max_lhs_size = 3;
  opts.memory_budget = &budget;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(rel, opts).ValueOrDie());
  }
  state.counters["peak_partition_bytes"] = benchmark::Counter(
      static_cast<double>(budget.high_water()));
}
BENCHMARK(BM_CandidateGeneration)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

// Candidate generation as the offline-tax set-up pays it: the dirty Tax
// table at 10,000 rows (systematic errors at 20%), LHS bound 3, one
// worker. `peak_partition_bytes` is the walk's governed working set: both
// frontiers share one partition store and the last level is never stored.
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
  MemoryBudget budget;
  CandidateGenOptions opts;
  opts.max_lhs_size = 3;
  opts.memory_budget = &budget;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateCandidates(dirty.dirty, opts).ValueOrDie());
  }
  state.counters["peak_partition_bytes"] = benchmark::Counter(
      static_cast<double>(budget.high_water()));
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
