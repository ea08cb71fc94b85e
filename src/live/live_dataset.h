#ifndef UGUIDE_LIVE_LIVE_DATASET_H_
#define UGUIDE_LIVE_LIVE_DATASET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/session.h"
#include "discovery/partition.h"
#include "live/live_relation.h"
#include "live/live_violation_index.h"
#include "live/mutation.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_artifact.h"
#include "violations/violation_engine.h"

namespace uguide {

class ThreadPool;

/// \brief One immutable serving epoch of a live dataset.
///
/// Everything a served session touches — the rebased Session (with E_T
/// recomputed against the mutated table), a warmed violation engine, and
/// the violation artifact over them — frozen at one data version.
/// Sessions pin the epoch's shared_ptr, so a long-running session keeps
/// its epoch alive after the ring has moved on.
///
/// The graph and the artifact are materialized lazily: an epoch publishes
/// only the frozen per-FD cell-vector handles (an O(#FDs) snapshot of the
/// live index); graph() runs the deterministic merge on first access and
/// artifact() completes it with the cell classes and removal counts. A
/// mutation burst of k batches therefore pays k incremental cell
/// recomputes but at most one merge — only for the epoch a session
/// actually opens against — while the result remains byte-identical to a
/// full rebuild.
struct LiveEpoch {
  DataVersion version = 0;
  /// Content hash of the *base* relation: the identity pair pinned into
  /// journals is (content_hash, version), so no per-epoch O(n) rehash.
  uint64_t content_hash = 0;
  std::shared_ptr<const Session> session;
  std::shared_ptr<ViolationEngine> engine;

  /// The epoch's violation graph, materialized on first access
  /// (thread-safe; epoch 0 returns the base artifact's graph directly).
  const ViolationGraph& graph() const;

  /// The epoch's violation artifact over `engine` and graph(), built on
  /// first access (thread-safe; epoch 0 returns `base`).
  const ViolationArtifact& artifact() const;

  /// Epoch 0's: the base session's artifact. Null for mutated epochs,
  /// which merge from the handles below instead.
  const ViolationArtifact* base = nullptr;
  /// Frozen merge inputs: the candidate FDs and their cell vectors at this
  /// version (untouched FDs share handles with neighboring epochs).
  std::vector<Fd> fds;
  std::vector<LiveViolationIndex::CellVector> per_fd;

 private:
  mutable std::once_flag graph_once_;
  mutable std::shared_ptr<const ViolationGraph> graph_;
  mutable std::once_flag artifact_once_;
  mutable std::unique_ptr<const ViolationArtifact> artifact_;
};

struct LiveDatasetOptions {
  /// Epochs kept resumable. A resume pinned to an older version than the
  /// ring retains is refused with `version_mismatch`.
  size_t epoch_ring = 8;
};

/// \brief The mutation subsystem: a versioned dataset that serves sessions
/// while its data never stops changing.
///
/// Epoch 0 serves the base session and its ViolationArtifact without
/// owning them. Each applied batch advances the LiveRelation, patches the
/// long-lived partition store for exactly the dirty attribute scope
/// (PartitionStore::AdvanceTo), recomputes violation-cell vectors only for
/// FDs the scope touches, and publishes a new epoch whose engine is
/// pre-seeded with every surviving partition —
/// byte-identical to rebuilding everything from scratch, at a fraction of
/// the work (DESIGN.md §15; BENCH_live.json quantifies it).
///
/// Thread safety: Apply/Current/AtVersion are mutex-serialized; the
/// epochs they hand out are immutable (the engine is internally locked),
/// so any number of served sessions run against them without the lock.
class LiveDataset {
 public:
  /// `base` and `pool` must outlive the dataset; epoch 0 serves `base` and
  /// base->artifact(pool) without copying either. `content_hash` is the
  /// base relation's content hash (the registry key's, for served
  /// datasets).
  LiveDataset(const Session* base, uint64_t content_hash, ThreadPool* pool,
              LiveDatasetOptions options = {});

  /// As above, for callers that hold the base artifact's pieces apart (as
  /// DatasetArtifacts exposes them): `base_engine` and `base_graph` must be
  /// base->artifact()'s engine and graph.
  LiveDataset(const Session* base, ViolationEngine* base_engine,
              const ViolationGraph* base_graph, uint64_t content_hash,
              ThreadPool* pool, LiveDatasetOptions options = {});

  /// The newest epoch. Never null.
  std::shared_ptr<const LiveEpoch> Current() const;

  /// The epoch at `version` if the ring still holds it, else null (the
  /// caller turns that into a `version_mismatch` refusal).
  std::shared_ptr<const LiveEpoch> AtVersion(DataVersion version) const;

  uint64_t content_hash() const { return content_hash_; }

  /// Applies one batch and, if anything applied, publishes the next
  /// epoch. Refused ops are counted in the receipt; a fully refused
  /// batch leaves the version (and the current epoch) unchanged.
  MutationReceipt Apply(const MutationBatch& batch);

  struct Stats {
    int64_t batches_applied = 0;
    int64_t ops_applied = 0;
    int64_t ops_refused = 0;
    int64_t fds_recomputed = 0;
    int64_t fds_skipped = 0;
  };
  Stats stats() const;

 private:
  const Session* base_;
  const uint64_t content_hash_;
  ThreadPool* pool_;
  const LiveDatasetOptions options_;

  mutable std::mutex mu_;
  LiveRelation relation_;
  /// The long-lived store carrying partitions across epochs: canonical
  /// column singles (patched in place by AdvanceTo) plus products
  /// harvested back from outgoing epoch engines (dropped when dirty).
  PartitionStore store_;
  LiveViolationIndex index_;
  std::vector<std::shared_ptr<const LiveEpoch>> ring_;
  int64_t batches_applied_ = 0;
  int64_t ops_applied_ = 0;
  int64_t ops_refused_ = 0;
};

}  // namespace uguide

#endif  // UGUIDE_LIVE_LIVE_DATASET_H_
