#ifndef UGUIDE_VIOLATIONS_VIOLATION_ENGINE_H_
#define UGUIDE_VIOLATIONS_VIOLATION_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "common/memory_budget.h"
#include "discovery/partition.h"
#include "fd/fd.h"
#include "relation/cell_bitmap.h"
#include "relation/relation.h"

namespace uguide {

/// \brief Partition-backed violation detector shared by every questioning
/// call site.
///
/// The hash-based reference detector (tests/reference/hash_detector.h)
/// re-groups the whole relation per FD: full-table hashing with a
/// heap-allocated composite key per row, repeated at each of the six call
/// sites that need violation sets. This engine computes the same sets
/// from stripped partitions instead: the violating rows of X -> A are the
/// rows of non-singleton classes of pi_X that are impure on A's column
/// codes, and the g3-minority rows fall out of the same class scan. pi_X is obtained
/// from an LRU, MemoryBudget-charged PartitionStore keyed by LHS, so the
/// many candidate AFDs sharing LHS (prefixes) after relaxation pay for each
/// partition once across *all* call sites in a session (see DESIGN.md §9).
///
/// Output contract: every query returns results byte-identical to the
/// reference detector. Stripped classes list rows in ascending order and
/// singleton classes can neither be impure nor contribute minority rows,
/// so impurity tests, first-seen majority tie-breaks, and the final sorted
/// row/cell vectors coincide exactly; the randomized equivalence suite in
/// tests/violation_engine_test.cc enforces this.
///
/// Thread safety: all methods are safe to call concurrently (the store is
/// internally locked, counters are atomic); the parallel
/// ViolationGraph::Build relies on this.
class ViolationEngine {
 public:
  /// `relation` must outlive the engine; `budget` may be null (partitions
  /// are then cached without eviction, exactly like ungoverned discovery).
  explicit ViolationEngine(const Relation* relation,
                           MemoryBudget* budget = nullptr);

  const Relation& relation() const { return *relation_; }

  /// Rows participating in a violating pair of `fd`, ascending.
  std::vector<TupleId> ViolatingTuples(const Fd& fd);

  /// ViolatingTuples without the final sort (LHS-class order), for
  /// callers that only collect or count.
  std::vector<TupleId> ViolatingTuplesUnordered(const Fd& fd);

  /// The RHS cells of ViolatingTuples, row-ascending.
  std::vector<Cell> ViolatingCells(const Fd& fd);

  /// The union of ViolatingCells(fd) over `fds` as a bitmap over the
  /// relation: E_T for the true FDs, a report's detections for its
  /// accepted FDs. The FDs are grouped by LHS, so each distinct LHS
  /// partition is looked up once, coarsest (fewest attributes) first, and
  /// each class is tested against every RHS of its group. An RHS whose
  /// column is already flagged in full is skipped; a group whose every
  /// RHS column is never looks its partition up. The result is a set
  /// union, so neither the order nor the skipping can change it.
  CellBitmap ViolatingCellUnion(const FdSet& fds);

  /// The g3 removal set of `fd`, ascending (minority rows per LHS class;
  /// ties break toward the first-seen RHS code, as in the reference).
  std::vector<TupleId> G3RemovalTuples(const Fd& fd);

  /// G3RemovalTuples without the final sort (LHS-class order), for
  /// callers that only count or aggregate.
  std::vector<TupleId> G3RemovalTuplesUnordered(const Fd& fd);

  /// The RHS cells of G3RemovalTuples.
  std::vector<Cell> G3RemovalCells(const Fd& fd);

  /// |G3RemovalTuples(fd)| without materializing the sorted vector.
  size_t G3RemovalCount(const Fd& fd);

  /// True iff `fd` has at least one violating pair (early-out class scan).
  bool HasViolations(const Fd& fd);

  /// The (cached) stripped partition of `attrs`; composed recursively from
  /// cached sub-partitions on a miss.
  std::shared_ptr<const Partition> LhsPartition(const AttributeSet& attrs);

  /// Seeds the store with an externally owned partition handle (pinned, not
  /// charged to this engine's budget). The live dataset injects patched
  /// column partitions and surviving products here so a fresh epoch engine
  /// starts warm instead of rebuilding from the relation.
  void SeedPartition(const AttributeSet& attrs,
                     std::shared_ptr<const Partition> partition);

  /// All partitions currently resident in the store (see
  /// PartitionStore::Snapshot); the live dataset harvests an outgoing
  /// epoch's products through this.
  std::vector<std::pair<AttributeSet, std::shared_ptr<const Partition>>>
  StorePartitions() const;

  /// Partition lookups served from the store without recomputation.
  size_t partition_hits() const;
  /// Partition lookups that had to (re)build the partition.
  size_t partition_misses() const;

 private:
  /// Calls fn(row) for every g3 removal row of `fd`, in class order.
  template <typename RowFn>
  void ForEachG3RemovalRow(const Fd& fd, const RowFn& fn);

  const Relation* relation_;
  PartitionStore store_;
  std::atomic<size_t> lookups_{0};
};

/// \brief Borrows a shared ViolationEngine or owns a local fallback.
///
/// Call sites accept an optional engine (sessions share one across graph
/// construction, question building, and evaluation); standalone callers
/// pass null and get a private engine over `relation` with the same
/// behavior, so every path routes through partition-backed detection.
class EngineRef {
 public:
  EngineRef(ViolationEngine* shared, const Relation* relation) {
    if (shared != nullptr) {
      engine_ = shared;
    } else {
      local_.emplace(relation);
      engine_ = &*local_;
    }
  }

  EngineRef(const EngineRef&) = delete;
  EngineRef& operator=(const EngineRef&) = delete;

  ViolationEngine& operator*() const { return *engine_; }
  ViolationEngine* operator->() const { return engine_; }
  ViolationEngine* get() const { return engine_; }

 private:
  std::optional<ViolationEngine> local_;
  ViolationEngine* engine_ = nullptr;
};

}  // namespace uguide

#endif  // UGUIDE_VIOLATIONS_VIOLATION_ENGINE_H_
