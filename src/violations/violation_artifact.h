#ifndef UGUIDE_VIOLATIONS_VIOLATION_ARTIFACT_H_
#define UGUIDE_VIOLATIONS_VIOLATION_ARTIFACT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fd/fd.h"
#include "relation/relation.h"
#include "violations/bipartite_graph.h"
#include "violations/cell_classes.h"
#include "violations/violation_engine.h"

namespace uguide {

class ThreadPool;

/// \brief The FD strategies' question pool over one candidate set (§5).
///
/// Candidates are indexed by graph FdId. Merged question m is the m-th
/// merged same-RHS candidate pair XY -> A in (i, j) enumeration order that
/// is neither a candidate nor an earlier merged FD. The enumeration is
/// prefix-stable: under any cap >= k the first k merged FDs are the same,
/// so one pool serves every FdStrategyOptions::max_merged_candidates up to
/// its size. Everything here depends only on the relation and the
/// candidates; a run prices the questions with its own CostModel.
class FdQuestionPool {
 public:
  /// Enumerates the first `max_merged` merged pairs over the artifact's
  /// candidates and scans their violations through its engine.
  FdQuestionPool(ViolationEngine& engine, const ViolationGraph& graph,
                 int max_merged);

  int NumCandidates() const {
    return static_cast<int>(candidate_extra_.size());
  }
  int NumMerged() const { return static_cast<int>(merged_fds_.size()); }

  /// True when the merged pool holds the first `max_merged` pairs of the
  /// enumeration, or every pair when there are fewer.
  bool Covers(int max_merged) const {
    return complete_ || NumMerged() >= max_merged;
  }

  /// CostModel::ExtraAttributes of candidate f against the candidates.
  int CandidateExtraAttributes(FdId f) const {
    return candidate_extra_[static_cast<size_t>(f)];
  }

  const Fd& merged_fd(int m) const {
    return merged_fds_[static_cast<size_t>(m)];
  }
  /// CostModel::ExtraAttributes of merged question m against the
  /// candidates.
  int MergedExtraAttributes(int m) const {
    return merged_extra_[static_cast<size_t>(m)];
  }
  /// |g3 removal set| of merged question m.
  size_t MergedRemovalCount(int m) const {
    return merged_removal_[static_cast<size_t>(m)];
  }
  /// The graph cells merged question m flags, in LHS-class order. A pair
  /// violating XY -> A agrees on X and differs on A, so it violates the
  /// candidate X -> A too: every such cell is a graph node.
  ConstSpan<CellId> CellsOfMerged(int m) const {
    const size_t i = static_cast<size_t>(m);
    return ConstSpan<CellId>(cell_edges_.data() + cell_offsets_[i],
                             cell_offsets_[i + 1] - cell_offsets_[i]);
  }
  /// The merged questions flagging graph cell `c`, ascending.
  ConstSpan<int> MergedOfCell(CellId c) const {
    const size_t i = static_cast<size_t>(c);
    return ConstSpan<int>(merged_edges_.data() + merged_offsets_[i],
                          merged_offsets_[i + 1] - merged_offsets_[i]);
  }

  /// Payload bytes (the MemoryBudget convention).
  size_t ApproxMemoryBytes() const;

 private:
  std::vector<int> candidate_extra_;
  std::vector<Fd> merged_fds_;
  std::vector<int> merged_extra_;
  std::vector<size_t> merged_removal_;
  bool complete_ = false;
  /// CSR: merged question m's cells are
  /// cell_edges_[cell_offsets_[m], cell_offsets_[m + 1]).
  std::vector<uint32_t> cell_offsets_;
  std::vector<CellId> cell_edges_;
  /// The inverse CSR over every graph cell: cell c's merged questions are
  /// merged_edges_[merged_offsets_[c], merged_offsets_[c + 1]).
  std::vector<uint32_t> merged_offsets_;
  std::vector<int> merged_edges_;
};

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
///     strategies' accuracy prior;
///   - TupleViolationCounts(): per tuple, the number of graph FDs whose
///     g3 removal set holds it, the tuple strategies' sampling weights
///     (Alg. 7);
///   - FdQuestions(k): the FD strategies' question pool with the first k
///     merged non-minimal questions, built on first request (DESIGN.md
///     §14.3).
/// Each piece is a deterministic function of the relation and the
/// candidate list — the same at any thread count and on every rebuild —
/// so a run over a shared artifact reports byte-identically to one that
/// built its own. A run keeps its mutable state in a GraphView over
/// graph().
///
/// Thread safety: every accessor is const, the engine is internally
/// locked and the question pool is built under a mutex, so any number of
/// concurrent runs may share one artifact.
class ViolationArtifact {
 public:
  /// Builds the graph over `candidates` through `engine` (per-FD scans
  /// sharded over `pool`, which may be null), then the classes and, in
  /// one g3 scan per FD, the removal counts and the per-tuple counts.
  ViolationArtifact(std::shared_ptr<ViolationEngine> engine,
                    const FdSet& candidates, ThreadPool* pool = nullptr);

  /// Completes a graph built elsewhere over `engine`'s relation (a live
  /// epoch's merge) with its classes, removal counts and per-tuple counts.
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

  /// For every tuple of the relation, the number of graph FDs whose g3
  /// removal set contains it. The same at any thread count.
  const std::vector<int>& TupleViolationCounts() const {
    return tuple_counts_;
  }

  /// The FD question pool holding at least the first `max_merged` merged
  /// questions (every one when fewer exist; none for max_merged <= 0).
  /// The first call builds it through the engine; a later call that asks
  /// for more merged questions than the pool holds rebuilds it with the
  /// larger cap. Runs keep the returned handle, so a rebuild never pulls
  /// a pool from under a reader.
  std::shared_ptr<const FdQuestionPool> FdQuestions(int max_merged) const;

  /// Payload bytes of the graph, the classes, both count arrays and the
  /// question pool once built (the MemoryBudget convention; the engine's
  /// partitions charge themselves).
  size_t ApproxMemoryBytes() const;

 private:
  std::shared_ptr<ViolationEngine> engine_;
  std::shared_ptr<const ViolationGraph> graph_;
  CellClasses classes_;
  std::vector<size_t> removal_counts_;
  std::vector<int> tuple_counts_;
  mutable std::mutex pool_mu_;
  mutable std::shared_ptr<const FdQuestionPool> pool_;  // guarded by pool_mu_
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
