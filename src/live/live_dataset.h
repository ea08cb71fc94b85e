#ifndef UGUIDE_LIVE_LIVE_DATASET_H_
#define UGUIDE_LIVE_LIVE_DATASET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/session.h"
#include "live/live_relation.h"
#include "live/mutation.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_artifact.h"
#include "violations/violation_engine.h"

namespace uguide {

class ThreadPool;

/// \brief One immutable serving epoch of a live dataset.
///
/// Everything a served session touches — the rebased Session (with E_T
/// recomputed against the mutated table), a violation engine over its
/// relation, and the violation artifact over them — frozen at one data
/// version. Sessions pin the epoch's shared_ptr, so a long-running session
/// keeps its epoch alive after the ring has moved on.
///
/// The graph and the artifact are built lazily: publishing an epoch does no
/// violation work, graph() runs one full ViolationGraph::Build on first
/// access and artifact() completes it with the cell classes and removal
/// counts. A mutation burst of k batches therefore pays for at most one
/// build — only for the epoch a session actually opens against
/// (DESIGN.md §15).
struct LiveEpoch {
  DataVersion version = 0;
  /// Content hash of the *base* relation: the identity pair pinned into
  /// journals is (content_hash, version), so no per-epoch O(n) rehash.
  uint64_t content_hash = 0;
  std::shared_ptr<const Session> session;
  std::shared_ptr<ViolationEngine> engine;

  /// The epoch's violation graph, built on first access (thread-safe;
  /// epoch 0 returns the base artifact's graph directly).
  const ViolationGraph& graph() const;

  /// The epoch's violation artifact over `engine` and graph(), built on
  /// first access (thread-safe; epoch 0 returns `base`).
  const ViolationArtifact& artifact() const;

  /// Epoch 0's: the base session's artifact. Null for mutated epochs,
  /// which build their own instead.
  const ViolationArtifact* base = nullptr;
  /// Mutated epochs': the dataset's pool, which shards graph()'s build
  /// (may be null).
  ThreadPool* pool = nullptr;

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
/// owning them. Each applied batch advances the LiveRelation, rebases the
/// session onto the mutated table, and publishes a new epoch with a fresh
/// violation engine over it; the epoch's graph is built from scratch the
/// first time a session opens against it (DESIGN.md §15).
///
/// Thread safety: Apply/Current/AtVersion are mutex-serialized; the
/// epochs they hand out are immutable (the engine is internally locked),
/// so any number of served sessions run against them without the lock.
class LiveDataset {
 public:
  /// `base` and `pool` must outlive the dataset and every epoch it hands
  /// out; epoch 0 serves `base` and base->artifact(pool) without copying
  /// either. `content_hash` is the base relation's content hash (the
  /// registry key's, for served datasets).
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
    /// Always 0: an epoch builds its graph whole, so no per-FD work is
    /// counted. Kept because the benchmark driver reports them.
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
  std::vector<std::shared_ptr<const LiveEpoch>> ring_;
  int64_t batches_applied_ = 0;
  int64_t ops_applied_ = 0;
  int64_t ops_refused_ = 0;
};

}  // namespace uguide

#endif  // UGUIDE_LIVE_LIVE_DATASET_H_
