// Live-mutation maintenance vs full rebuild: applies update batches of 1,
// 8, and 64 rows to Tax@5000 and times, per batch, the incremental path
// (LiveRelation group moves + PartitionStore::AdvanceTo patching +
// LiveViolationIndex::Advance over scope-touched FDs) against rebuilding
// from the mutated bytes (fresh engine, all column partitions, every FD's
// ViolatingCells). Both arms stop at the same place — per-FD cell vectors
// ready — because that is what an epoch publishes: the O(total cells)
// graph merge is deferred by the lazy LiveEpoch::graph() and paid once,
// only for an epoch a session actually opens, identically on either path.
// The merge cost is measured separately (materialize_ms_per_batch) and the
// merged graphs are checked byte-identical every epoch. Emits
// BENCH_live.fresh.json by default, never the checked-in BENCH_live.json
// baseline; tools/check_bench.py gates the single-row speedup at >= 5x.
//
//   bench_live [--rows=N] [--epochs=E] [--out=BENCH_live.fresh.json]

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/generators.h"
#include "discovery/partition.h"
#include "discovery/tane.h"
#include "errorgen/error_generator.h"
#include "flag_parse.h"
#include "live/live_relation.h"
#include "live/live_violation_index.h"
#include "live/mutation.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_engine.h"

using namespace uguide;

namespace {

struct Args {
  int rows = 5000;
  // Enough batches that the steady state dominates: the first epoch pays
  // cold partition-product caches that every later epoch reuses.
  int epochs = 32;
  std::string out = "BENCH_live.fresh.json";
};

struct SizeResult {
  int batch_rows = 0;
  int epochs = 0;
  double incremental_ms_per_batch = 0.0;
  double rebuild_ms_per_batch = 0.0;
  double materialize_ms_per_batch = 0.0;
  double speedup = 0.0;
  int64_t fds_recomputed = 0;
  int64_t fds_skipped = 0;
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One update batch: `batch_rows` random cells overwritten with values
/// drawn from a small pool, so mutations both create and heal violations.
MutationBatch MakeBatch(Rng& rng, TupleId num_rows, int num_attrs,
                        int batch_rows) {
  MutationBatch batch;
  for (int i = 0; i < batch_rows; ++i) {
    batch.ops.push_back(Mutation::Update(
        static_cast<TupleId>(rng.NextBounded(static_cast<uint64_t>(num_rows))),
        static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_attrs))),
        "live-v" + std::to_string(rng.NextBounded(23))));
  }
  return batch;
}

/// Every FD's cells from the mutated bytes — the rebuild arm's work,
/// sharded exactly as ViolationGraph::Build shards it.
std::vector<std::vector<Cell>> RebuildVectors(const std::vector<Fd>& fds,
                                              ViolationEngine& engine,
                                              ThreadPool* pool) {
  if (pool != nullptr && pool->num_threads() > 1 && fds.size() > 1) {
    return pool->ParallelMap(
        fds, [&](const Fd& fd) { return engine.ViolatingCells(fd); });
  }
  std::vector<std::vector<Cell>> per_fd;
  per_fd.reserve(fds.size());
  for (const Fd& fd : fds) per_fd.push_back(engine.ViolatingCells(fd));
  return per_fd;
}

/// Runs one batch size: a fresh LiveRelation per size so every size sees
/// the same starting bytes, then `epochs` batches, timing both arms over
/// the identical mutation sequence.
SizeResult RunSize(const Relation& dirty, const FdSet& fds, ThreadPool* pool,
                   const Args& args, int batch_rows) {
  SizeResult result;
  result.batch_rows = batch_rows;
  result.epochs = args.epochs;

  LiveRelation live(dirty);
  const int m = dirty.NumAttributes();
  const std::vector<Fd> fd_list(fds.begin(), fds.end());

  // The cross-epoch store with pinned canonical singles, exactly as
  // LiveDataset seeds it.
  PartitionStore store(&live.relation(), /*budget=*/nullptr);
  for (int c = 0; c < m; ++c) {
    store.PutShared(AttributeSet::Single(c),
                    std::make_shared<const Partition>(
                        Partition::ForColumn(live.relation(), c)),
                    /*pinned=*/true);
  }
  auto engine =
      std::make_unique<ViolationEngine>(&live.relation(), /*budget=*/nullptr);
  for (auto& [attrs, handle] : store.Snapshot()) {
    engine->SeedPartition(attrs, std::move(handle));
  }
  LiveViolationIndex index(fds, *engine, pool);
  size_t cells = index.MakeGraph().NumCells();

  Rng rng(0x11d0 + static_cast<uint64_t>(batch_rows));
  for (int epoch = 0; epoch < args.epochs; ++epoch) {
    const MutationBatch batch =
        MakeBatch(rng, live.NumRows(), m, batch_rows);

    // --- incremental arm: the LiveDataset::Apply maintenance recipe -------
    const auto inc_start = std::chrono::steady_clock::now();
    for (auto& [attrs, handle] : engine->StorePartitions()) {
      if (attrs.Empty()) continue;
      store.PutShared(attrs, std::move(handle), /*pinned=*/attrs.Size() == 1);
    }
    const MutationReceipt receipt = live.Apply(batch);
    store.AdvanceTo(receipt.version, receipt.scope.attrs, [&](int col) {
      return std::make_shared<const Partition>(live.ColumnPartition(col));
    });
    engine = std::make_unique<ViolationEngine>(&live.relation(),
                                               /*budget=*/nullptr);
    for (auto& [attrs, handle] : store.Snapshot()) {
      engine->SeedPartition(attrs, std::move(handle));
    }
    index.Advance(receipt.scope.attrs, *engine, pool);
    result.incremental_ms_per_batch += MsSince(inc_start);

    // --- rebuild arm: everything from the mutated bytes -------------------
    const auto full_start = std::chrono::steady_clock::now();
    ViolationEngine fresh(&live.relation(), /*budget=*/nullptr);
    const std::vector<std::vector<Cell>> rebuilt_vectors =
        RebuildVectors(fd_list, fresh, pool);
    result.rebuild_ms_per_batch += MsSince(full_start);

    // --- deferred materialization, identical on either path ---------------
    const auto merge_start = std::chrono::steady_clock::now();
    const ViolationGraph incremental = index.MakeGraph();
    result.materialize_ms_per_batch += MsSince(merge_start);

    // Untimed identity check: the lazily merged incremental graph must be
    // byte-for-byte the merge of the rebuilt vectors.
    const ViolationGraph rebuilt =
        ViolationGraph::FromPerFdCells(fd_list, rebuilt_vectors);
    if (incremental.NumCells() != rebuilt.NumCells() ||
        incremental.ApproxMemoryBytes() != rebuilt.ApproxMemoryBytes()) {
      std::fprintf(stderr,
                   "bench_live: incremental/rebuild divergence at batch=%d "
                   "epoch=%d (%d vs %d cells)\n",
                   batch_rows, epoch, incremental.NumCells(),
                   rebuilt.NumCells());
      std::exit(1);
    }
    cells = static_cast<size_t>(rebuilt.NumCells());
  }

  result.incremental_ms_per_batch /= args.epochs;
  result.rebuild_ms_per_batch /= args.epochs;
  result.materialize_ms_per_batch /= args.epochs;
  result.speedup = result.incremental_ms_per_batch > 0.0
                       ? result.rebuild_ms_per_batch /
                             result.incremental_ms_per_batch
                       : 0.0;
  result.fds_recomputed = index.fds_recomputed();
  result.fds_skipped = index.fds_skipped();
  std::printf("%10d %8d %10zu %15.3f %11.3f %8.3f %9.1fx %8lld %8lld\n",
              batch_rows, args.epochs, cells,
              result.incremental_ms_per_batch, result.rebuild_ms_per_batch,
              result.materialize_ms_per_batch, result.speedup,
              static_cast<long long>(result.fds_recomputed),
              static_cast<long long>(result.fds_skipped));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags("bench_live");
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto [flag, value] = FlagParser::Split(argv[i]);
    if (flag == "--rows") {
      if (!flags.Int("--rows", value, 1, &args.rows)) return 2;
    } else if (flag == "--epochs") {
      if (!flags.Int("--epochs", value, 1, &args.epochs)) return 2;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      std::fprintf(stderr, "bench_live: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::fprintf(stderr, "bench_live: building Tax@%d...\n", args.rows);
  DataGenOptions data;
  data.rows = args.rows;
  data.seed = 42;
  const Relation clean = GenerateTax(data);

  TaneOptions tane;
  tane.max_lhs_size = 2;
  const FdSet fds = DiscoverFds(clean, tane).ValueOrDie();

  ErrorGenOptions errors;
  errors.model = ErrorModel::kUniform;
  errors.error_rate = 0.05;
  errors.seed = 43;
  DirtyDataset dataset = InjectErrors(clean, fds, errors).ValueOrDie();

  ThreadPool pool(ThreadPool::kAuto);
  std::printf("== Live maintenance vs full rebuild (Tax@%d, %zu FDs) ==\n",
              args.rows, fds.Size());
  std::printf("%10s %8s %10s %15s %11s %8s %10s %8s %8s\n", "batch_rows",
              "epochs", "cells", "incremental_ms", "rebuild_ms", "merge_ms",
              "speedup", "fds_rec", "fds_skip");

  std::vector<SizeResult> results;
  for (int batch_rows : {1, 8, 64}) {
    results.push_back(
        RunSize(dataset.dirty, fds, &pool, args, batch_rows));
  }

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_live: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"live\",\n"
               "  \"rows\": %d,\n"
               "  \"fds\": %zu,\n"
               "  \"batch_sizes\": [\n",
               args.rows, fds.Size());
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(out,
                 "    {\"batch_rows\": %d, \"epochs\": %d, "
                 "\"incremental_ms_per_batch\": %.4f, "
                 "\"rebuild_ms_per_batch\": %.4f, "
                 "\"materialize_ms_per_batch\": %.4f, \"speedup\": %.2f, "
                 "\"fds_recomputed\": %lld, \"fds_skipped\": %lld}%s\n",
                 r.batch_rows, r.epochs, r.incremental_ms_per_batch,
                 r.rebuild_ms_per_batch, r.materialize_ms_per_batch,
                 r.speedup, static_cast<long long>(r.fds_recomputed),
                 static_cast<long long>(r.fds_skipped),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "bench_live: wrote %s\n", args.out.c_str());
  return 0;
}
