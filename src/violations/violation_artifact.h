#ifndef UGUIDE_VIOLATIONS_VIOLATION_ARTIFACT_H_
#define UGUIDE_VIOLATIONS_VIOLATION_ARTIFACT_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "fd/fd.h"
#include "relation/relation.h"
#include "violations/bipartite_graph.h"
#include "violations/cell_classes.h"
#include "violations/violation_engine.h"

namespace uguide {

class ThreadPool;

/// \brief The violation state of one dataset that no strategy run changes.
///
/// Built once per (relation, candidate set) and shared `const` by every
/// run over it (DESIGN.md §14):
///   - engine(): the partition-backed ViolationEngine over the relation,
///     its store warmed by the graph build;
///   - graph(): the frozen FD <-> violation graph over the candidates;
///   - classes(): the graph's cells grouped by flagging-FD list, which
///     every cell strategy scores and selects over (DESIGN.md §14.2);
///   - RemovalCount(f): |g3 removal set| of every graph FD, the FD
///     strategies' accuracy prior.
/// Each piece is a deterministic function of the relation and the
/// candidate list — the same at any thread count and on every rebuild —
/// so a run over a shared artifact reports byte-identically to one that
/// built its own. A run keeps its mutable state in a GraphView over
/// graph().
///
/// Thread safety: every accessor is const and the engine is internally
/// locked, so any number of concurrent runs may share one artifact.
class ViolationArtifact {
 public:
  /// Builds the graph over `candidates` through `engine` (per-FD scans
  /// sharded over `pool`, which may be null), then the classes and the
  /// removal counts.
  ViolationArtifact(std::shared_ptr<ViolationEngine> engine,
                    const FdSet& candidates, ThreadPool* pool = nullptr);

  /// Completes a graph built elsewhere over `engine`'s relation (a live
  /// epoch's merge) with its classes and removal counts.
  ViolationArtifact(std::shared_ptr<ViolationEngine> engine,
                    std::shared_ptr<const ViolationGraph> graph,
                    ThreadPool* pool = nullptr);

  ViolationArtifact(const ViolationArtifact&) = delete;
  ViolationArtifact& operator=(const ViolationArtifact&) = delete;

  ViolationEngine& engine() const { return *engine_; }
  const ViolationGraph& graph() const { return *graph_; }
  const CellClasses& classes() const { return classes_; }

  /// |G3RemovalTuples(graph().fd(f))|.
  size_t RemovalCount(FdId f) const {
    UGUIDE_CHECK(f >= 0 && f < graph_->NumFds()) << "graph index out of range";
    return removal_counts_[static_cast<size_t>(f)];
  }

  /// Payload bytes of the graph, the classes and the removal counts (the
  /// MemoryBudget convention; the engine's partitions charge themselves).
  size_t ApproxMemoryBytes() const;

 private:
  std::shared_ptr<ViolationEngine> engine_;
  std::shared_ptr<const ViolationGraph> graph_;
  CellClasses classes_;
  std::vector<size_t> removal_counts_;
};

/// \brief Borrows a shared ViolationArtifact or owns a private one.
///
/// The EngineRef of whole artifacts: sessions hand strategies their
/// shared artifact; standalone callers pass null and get a private one
/// over (relation, candidates), built the same way, so both report the
/// same bytes.
class ArtifactRef {
 public:
  ArtifactRef(const ViolationArtifact* shared, const Relation* relation,
              const FdSet& candidates, ThreadPool* pool) {
    if (shared != nullptr) {
      artifact_ = shared;
    } else {
      local_.emplace(std::make_shared<ViolationEngine>(relation), candidates,
                     pool);
      artifact_ = &*local_;
    }
  }

  ArtifactRef(const ArtifactRef&) = delete;
  ArtifactRef& operator=(const ArtifactRef&) = delete;

  const ViolationArtifact& operator*() const { return *artifact_; }
  const ViolationArtifact* operator->() const { return artifact_; }

 private:
  std::optional<ViolationArtifact> local_;
  const ViolationArtifact* artifact_ = nullptr;
};

}  // namespace uguide

#endif  // UGUIDE_VIOLATIONS_VIOLATION_ARTIFACT_H_
