#ifndef UGUIDE_SERVER_DATASET_REGISTRY_H_
#define UGUIDE_SERVER_DATASET_REGISTRY_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "server/dataset.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_artifact.h"
#include "violations/violation_engine.h"

namespace uguide {

class MemoryBudget;
class ThreadPool;

/// Cache key of a shared dataset entry: what the relation *contains*
/// (RelationContentHash of the dirty table) plus the signature of every
/// session-affecting option. Two deployments whose recipes load the same
/// bytes under the same expert/budget configuration share one entry; the
/// same bytes under a different configuration do not, because the Session
/// they need differs.
struct DatasetKey {
  uint64_t content_hash = 0;
  uint64_t config_signature = 0;
  /// Live-data epoch the entry was built at. Registry builds are always
  /// version 0 (the base relation as loaded); the live subsystem derives
  /// later epochs from the base bundle, and the version keeps their
  /// identity distinct from the base's without rehashing the mutated
  /// relation per epoch.
  uint64_t data_version = 0;

  bool operator<(const DatasetKey& other) const {
    if (content_hash != other.content_hash) {
      return content_hash < other.content_hash;
    }
    if (config_signature != other.config_signature) {
      return config_signature < other.config_signature;
    }
    return data_version < other.data_version;
  }
  bool operator==(const DatasetKey& other) const {
    return content_hash == other.content_hash &&
           config_signature == other.config_signature &&
           data_version == other.data_version;
  }
};

/// \brief The immutable artifact bundle every session over one dataset
/// shares: the built Session (dirty table, candidate AFDs, discovery
/// outcome, expert configuration) and its ViolationArtifact — the engine
/// whose PartitionStore the graph build warmed, the frozen violation
/// graph, its cell classes and the candidates' removal counts.
///
/// The violation artifact is the session's own (Session::artifact): the
/// bundle builds it eagerly through the registry's pool and binds its
/// engine to the registry's budget, and every run over `session` — served
/// or local — reads that one artifact, so nothing here is built twice.
///
/// Immutability contract: nothing here changes after construction.
/// The engine is internally locked and its cached partitions are
/// recomputable, so concurrent readers are safe; runs keep their mutable
/// state in a per-run GraphView over the frozen graph.
/// Consumers hold `shared_ptr<const DatasetArtifacts>`, keeping the bundle
/// alive for as long as any session uses it; the registry drops its own
/// reference under memory pressure (EvictIdle) and rebuilds on the next
/// Open — byte-identically, because the whole build is deterministic.
struct DatasetArtifacts {
  /// Moves the built session in, then builds the session's artifact
  /// against the *member* session (members initialize in declaration
  /// order), so the engine's relation pointer is valid for the bundle's
  /// whole life. Charges the artifact + relation payload bytes against
  /// `budget`.
  DatasetArtifacts(ServedDatasetOptions opts, DatasetKey k, Session s,
                   ThreadPool* pool, MemoryBudget* budget);
  /// Releases `charged_bytes` back to the budget (the engine's partitions
  /// release their own charges when the store dies).
  ~DatasetArtifacts();

  DatasetArtifacts(const DatasetArtifacts&) = delete;
  DatasetArtifacts& operator=(const DatasetArtifacts&) = delete;

  const ServedDatasetOptions options;  ///< The recipe that built the entry.
  const DatasetKey key;
  const Session session;
  /// session.artifact(), built by the constructor.
  const ViolationArtifact& artifact;
  /// The artifact's engine and graph (not copies), for callers that take
  /// them apart: LiveDataset's and SessionManagerOptions' engine/graph.
  const std::shared_ptr<ViolationEngine> engine;
  const ViolationGraph& graph;
  /// Bytes ForceCharged at build (artifact + relation payloads).
  const size_t charged_bytes;

 private:
  MemoryBudget* const budget_;
};

struct DatasetRegistryOptions {
  /// Worker pool for artifact builds (parallel graph construction).
  /// Null = serial. Results are bit-identical at any thread count.
  ThreadPool* pool = nullptr;
  /// Budget charged for shared artifacts and the engines' partition
  /// stores; its soft limit drives eviction. Null = ungoverned.
  MemoryBudget* memory_budget = nullptr;
  /// Circuit breaker: a recipe whose build fails this many times inside
  /// `breaker_window_ms` is quarantined — further Opens are refused
  /// immediately (kUnavailable, no build attempted) until the backoff
  /// elapses, when one half-open probe build is allowed through. 0
  /// disables the breaker.
  int breaker_failures = 3;
  double breaker_window_ms = 60000.0;
  /// Base refusal window after a trip; doubles per consecutive failed
  /// probe (capped at 16x).
  double breaker_backoff_ms = 5000.0;
};

struct DatasetRegistryStats {
  int64_t builds = 0;        ///< Full artifact builds.
  int64_t hits = 0;          ///< Opens served from cache.
  int64_t shared_waits = 0;  ///< Opens that waited behind an in-flight build.
  int64_t evicted = 0;       ///< Artifacts dropped under memory pressure.
  int64_t breaker_trips = 0;     ///< Recipes newly quarantined.
  int64_t quarantined_opens = 0; ///< Opens refused by an open breaker.
  int64_t probes = 0;            ///< Half-open probe builds allowed through.
};

/// \brief Process-wide cache of shared dataset artifacts, built once per
/// content under a singleflight guard.
///
/// A serving process may field thousands of session opens against a
/// handful of datasets. Everything expensive about an open — generating
/// or loading the table, discovery, candidate generation, warming the
/// partition store, building the violation graph — depends only on the
/// dataset recipe, not on the session, so the registry computes it once
/// and hands every session the same immutable DatasetArtifacts. Sessions
/// keep only per-strategy mutable state (their fiber, journal, and — for
/// cell strategies — a GraphView over the shared graph).
///
/// Singleflight: N concurrent Opens of the same recipe perform exactly one
/// build; the rest block until it completes and share the result. Distinct
/// recipes build concurrently.
///
/// Eviction: Open and EvictIdle drop least-recently-used entries no
/// session references (use_count() == 1) while the budget sits over its
/// soft limit. A dropped entry costs nothing but recompute time: the next
/// Open rebuilds it and, the build being deterministic, every later
/// session report is byte-identical to one served before the eviction.
///
/// Circuit breaker: a recipe that keeps failing to build (bad generator
/// config, injected faults, exhausted budget) is quarantined after
/// breaker_failures failures inside breaker_window_ms — Opens then refuse
/// instantly instead of burning the build path, until a backoff elapses
/// and a single half-open probe retries the build. Success closes the
/// breaker; failure re-opens it with doubled backoff. One poisoned
/// dataset thus cannot starve builds of healthy ones.
///
/// Thread safety: all methods are safe to call concurrently.
class DatasetRegistry {
 public:
  explicit DatasetRegistry(DatasetRegistryOptions options = {});

  /// Returns the shared artifacts for `options`, building them if no
  /// entry matches (singleflight per recipe signature). The returned
  /// pointer pins the artifacts against eviction until released.
  Result<std::shared_ptr<const DatasetArtifacts>> Open(
      const ServedDatasetOptions& options);

  /// Evicts unreferenced entries (LRU first) while the budget is over its
  /// soft limit; returns how many were dropped. The daemon calls this from
  /// its maintenance tick, next to session idle eviction.
  int EvictIdle();

  /// Entries currently resident.
  int size() const;

  DatasetRegistryStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const DatasetArtifacts> artifacts;
    uint64_t last_used = 0;  ///< Registry tick, for LRU ordering.
  };

  /// Per-recipe circuit-breaker state (fault-aware clock throughout).
  struct Breaker {
    /// Recent build-failure instants, pruned to the window.
    std::deque<std::chrono::steady_clock::time_point> failures;
    bool quarantined = false;
    std::chrono::steady_clock::time_point open_until;
    int trips = 0;  ///< Consecutive trips; scales the backoff.
  };

  /// The expensive path: stage 1 (generate + discover + inject) and
  /// stage 2 (Session::Create, engine, graph build, budget charge).
  /// Runs without the registry lock held.
  Result<std::shared_ptr<const DatasetArtifacts>> BuildArtifacts(
      const ServedDatasetOptions& options) const;

  /// Caller holds mu_. Returns entries dropped.
  int EvictLocked();

  /// Records one build failure for `signature`; trips or re-opens the
  /// breaker as warranted. Caller holds mu_.
  void RecordBuildFailureLocked(uint64_t signature, bool was_probe);

  const DatasetRegistryOptions options_;

  mutable std::mutex mu_;
  std::condition_variable build_done_;
  std::map<DatasetKey, Entry> entries_;
  /// Recipe signature -> content key, so repeat opens skip regenerating
  /// the table just to recompute its hash.
  std::map<uint64_t, DatasetKey> recipe_to_key_;
  /// Recipe signatures with an in-flight build (the singleflight guard).
  std::set<uint64_t> building_;
  /// Recipe signatures with recorded build failures; erased on success.
  std::map<uint64_t, Breaker> breakers_;
  uint64_t tick_ = 0;
  DatasetRegistryStats stats_;
};

}  // namespace uguide

#endif  // UGUIDE_SERVER_DATASET_REGISTRY_H_
