#ifndef UGUIDE_SERVER_DATASET_REGISTRY_H_
#define UGUIDE_SERVER_DATASET_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "server/dataset.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_artifact.h"
#include "violations/violation_engine.h"

namespace uguide {

class ThreadPool;

/// Identity of a bundle's data: what the dirty relation *contains*
/// (RelationContentHash). Live data stamps it into journals and reports.
struct DatasetKey {
  uint64_t content_hash = 0;
};

/// \brief The immutable artifact bundle every session over one dataset
/// shares: the built Session (dirty table, candidate AFDs, discovery
/// outcome, expert configuration) and its ViolationArtifact — the engine
/// whose PartitionStore the graph build warmed, the frozen violation
/// graph, its cell classes and the candidates' removal counts.
///
/// The violation artifact is the session's own (Session::artifact): the
/// bundle builds it eagerly through the registry's pool, and every run
/// over `session` — served or local — reads that one artifact, so nothing
/// here is built twice.
///
/// Immutability contract: nothing here changes after construction.
/// The engine is internally locked and its cached partitions are
/// recomputable, so concurrent readers are safe; runs keep their mutable
/// state in a per-run GraphView over the frozen graph.
/// Consumers hold `shared_ptr<const DatasetArtifacts>`; the bundle dies
/// with the last reference.
struct DatasetArtifacts {
  /// Moves the built session in, then builds the session's artifact
  /// against the *member* session (members initialize in declaration
  /// order), so the engine's relation pointer is valid for the bundle's
  /// whole life.
  DatasetArtifacts(DatasetKey k, Session s, ThreadPool* pool);

  DatasetArtifacts(const DatasetArtifacts&) = delete;
  DatasetArtifacts& operator=(const DatasetArtifacts&) = delete;

  const DatasetKey key;
  const Session session;
  /// session.artifact(), built by the constructor.
  const ViolationArtifact& artifact;
  /// The artifact's engine and graph (not copies), for callers that take
  /// them apart: LiveDataset's and SessionManagerOptions' engine/graph.
  const std::shared_ptr<ViolationEngine> engine;
  const ViolationGraph& graph;
};

struct DatasetRegistryOptions {
  /// Worker pool for artifact builds (parallel graph construction).
  /// Null = serial. Results are bit-identical at any thread count.
  ThreadPool* pool = nullptr;
};

struct DatasetRegistryStats {
  int64_t builds = 0;  ///< Full artifact builds.
  int64_t hits = 0;    ///< Opens served from the memo.
};

/// \brief Builds a dataset recipe's shared artifacts once and hands every
/// later Open of that recipe the same bundle.
///
/// Everything expensive about serving a dataset — generating the table,
/// discovery, candidate generation, warming the partition store, building
/// the violation graph — depends only on the recipe, not on the session,
/// so it is computed once and every session reads the same immutable
/// DatasetArtifacts. uguided opens one recipe at startup.
///
/// The memo is keyed by ServedDatasetSignature, which ignores
/// `num_threads` (outputs are thread-invariant). The mutex is held across
/// the build, so concurrent Opens of one recipe queue behind it and then
/// hit: one build. A failed build is returned and not cached; the next
/// Open retries it. Bundles live as long as the registry.
///
/// Thread safety: all methods are safe to call concurrently.
class DatasetRegistry {
 public:
  explicit DatasetRegistry(DatasetRegistryOptions options = {});

  /// Returns the shared artifacts for `options`, building them on the
  /// recipe's first successful Open.
  Result<std::shared_ptr<const DatasetArtifacts>> Open(
      const ServedDatasetOptions& options);

  DatasetRegistryStats stats() const;

 private:
  const DatasetRegistryOptions options_;

  mutable std::mutex mu_;
  /// Recipe signature -> its built bundle.
  std::map<uint64_t, std::shared_ptr<const DatasetArtifacts>> built_;
  DatasetRegistryStats stats_;
};

}  // namespace uguide

#endif  // UGUIDE_SERVER_DATASET_REGISTRY_H_
