#ifndef UGUIDE_VIOLATIONS_VIOLATION_ARTIFACT_H_
#define UGUIDE_VIOLATIONS_VIOLATION_ARTIFACT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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

  /// Payload bytes (the Partition::ApproxBytes convention).
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

/// \brief Sampling-Saturation's saturated sets of Sigma_T (Alg. 8 line 2).
///
/// The closed sets of an FD set in NextClosure's lectic order, without the
/// full attribute set, which no two distinct tuples agree on. The order is
/// prefix-stable: SaturatedSets(fds, m, c) is a prefix of its output under
/// any larger cap, so one family serves every cap up to the one it was
/// built with. A run keeps its own "retired" flags over the indices.
class SaturatedFamily {
 public:
  /// Enumerates SaturatedSets(fds, num_attributes, max_sets) and indexes
  /// every set but the full one.
  SaturatedFamily(const FdSet& fds, int num_attributes, size_t max_sets);

  /// True when the family holds every set SaturatedSets returns under
  /// `max_sets`.
  bool Covers(size_t max_sets) const {
    return complete_ || std::max<size_t>(max_sets, 1) <= max_sets_;
  }

  /// True iff `fds` is the FD set the family was built from, in order.
  bool BuiltFrom(const FdSet& fds) const { return fds.fds() == fds_; }

  int Size() const { return static_cast<int>(sets_.size()); }
  const AttributeSet& set(int i) const {
    return sets_[static_cast<size_t>(i)];
  }

  /// How many of the family's first sets SaturatedSets(fds, m, max_sets)
  /// returns, the full set aside: the enumeration yields at least one set
  /// and ends with the full set once it is complete.
  int Limit(size_t max_sets) const {
    return static_cast<int>(
        std::min(std::max<size_t>(max_sets, 1), sets_.size()));
  }

  /// The index of `w`, or -1 when the family does not hold it.
  int IndexOf(const AttributeSet& w) const {
    size_t slot = AttributeSetHash{}(w) & index_mask_;
    while (index_[slot] >= 0) {
      if (sets_[static_cast<size_t>(index_[slot])] == w) return index_[slot];
      slot = (slot + 1) & index_mask_;
    }
    return -1;
  }

  /// Payload bytes (the Partition::ApproxBytes convention).
  size_t ApproxMemoryBytes() const {
    return fds_.size() * sizeof(Fd) + sets_.size() * sizeof(AttributeSet) +
           index_.size() * sizeof(int);
  }

 private:
  std::vector<Fd> fds_;
  size_t max_sets_ = 1;
  bool complete_ = false;
  std::vector<AttributeSet> sets_;
  /// Open-addressed index into sets_ (-1 empty), load factor <= 0.5.
  std::vector<int> index_;
  size_t index_mask_ = 0;
};

/// \brief A piece a strategy derives from an artifact and its own options
/// alone, before any answer: built once by the first run that asks and
/// shared read-only by every later one (ViolationArtifact::Piece).
class ArtifactPiece {
 public:
  ArtifactPiece() = default;
  ArtifactPiece(const ArtifactPiece&) = delete;
  ArtifactPiece& operator=(const ArtifactPiece&) = delete;
  virtual ~ArtifactPiece() = default;
  /// Payload bytes (the Partition::ApproxBytes convention).
  virtual size_t ApproxMemoryBytes() const = 0;
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
///     §14.3);
///   - SaturatedSetFamily(Sigma_T, cap): Sampling-Saturation's saturated
///     sets, built on first request;
///   - Piece(key, build): any other answer-free piece a strategy keys by
///     its options (CellQ-SUMS's layout and first fixpoint), built on
///     first request.
/// Each piece is a deterministic function of the relation and the
/// candidate list — the same at any thread count and on every rebuild —
/// so a run over a shared artifact reports byte-identically to one that
/// built its own. A run keeps its mutable state in a GraphView over
/// graph().
///
/// Thread safety: every accessor is const, the engine is internally
/// locked and every lazily built piece is built under a mutex, so any
/// number of concurrent runs may share one artifact.
class ViolationArtifact {
 public:
  /// Builds the graph over `candidates` through `engine` (per-FD scans
  /// sharded over `pool`, which may be null), then the classes and, in
  /// one g3 scan per FD, the removal counts and the per-tuple counts.
  ViolationArtifact(std::shared_ptr<ViolationEngine> engine,
                    const FdSet& candidates, ThreadPool* pool = nullptr);

  /// Completes a graph built elsewhere over `engine`'s relation (a live
  /// epoch's lazily built graph) with its classes, removal counts and
  /// per-tuple counts.
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

  /// The saturated sets of `exact_fds` (Sigma_T) over the relation's
  /// attributes, covering SaturatedSets(exact_fds, m, max_sets). Built by
  /// the first call; a later call with a cap the family does not cover
  /// rebuilds it with that cap. Every call must pass the FD set the family
  /// was built from (checked). Runs keep the returned handle, as with
  /// FdQuestions.
  std::shared_ptr<const SaturatedFamily> SaturatedSetFamily(
      const FdSet& exact_fds, size_t max_sets) const;

  /// The piece stored under `key`, built by `build` on the first call for
  /// the key; racing first calls build it once. `build` must return a
  /// deterministic function of this artifact and the key, and always the
  /// same type T for one key (checked). It runs under the pieces' mutex,
  /// so it must not call Piece itself.
  template <typename T, typename BuildFn>
  std::shared_ptr<const T> Piece(const std::string& key,
                                 const BuildFn& build) const {
    std::shared_ptr<const T> piece = std::dynamic_pointer_cast<const T>(
        PieceOf(key, [&]() -> std::shared_ptr<const ArtifactPiece> {
          return build();
        }));
    UGUIDE_CHECK(piece != nullptr) << "artifact piece '" << key
                                   << "' has another type";
    return piece;
  }

  /// Payload bytes of the graph, the classes, both count arrays and every
  /// lazily built piece once built (the Partition::ApproxBytes
  /// convention; the engine's partitions are not included).
  size_t ApproxMemoryBytes() const;

 private:
  std::shared_ptr<ViolationEngine> engine_;
  std::shared_ptr<const ViolationGraph> graph_;
  CellClasses classes_;
  std::vector<size_t> removal_counts_;
  std::vector<int> tuple_counts_;
  std::shared_ptr<const ArtifactPiece> PieceOf(
      const std::string& key,
      const std::function<std::shared_ptr<const ArtifactPiece>()>& build)
      const;

  // Each lazily built piece is built under its own mutex, so building one
  // never waits for another.
  mutable std::mutex pool_mu_;
  mutable std::shared_ptr<const FdQuestionPool> pool_;  // guarded by pool_mu_
  mutable std::mutex family_mu_;
  mutable std::shared_ptr<const SaturatedFamily> family_;  // by family_mu_
  mutable std::mutex pieces_mu_;
  mutable std::map<std::string, std::shared_ptr<const ArtifactPiece>>
      pieces_;  // guarded by pieces_mu_
};

}  // namespace uguide

#endif  // UGUIDE_VIOLATIONS_VIOLATION_ARTIFACT_H_
