#ifndef UGUIDE_DISCOVERY_PARTITION_H_
#define UGUIDE_DISCOVERY_PARTITION_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/attribute_set.h"
#include "common/memory_budget.h"
#include "common/span.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

/// \brief Reusable buffers for Partition's count-only queries
/// (ProductExcess, Removals). Each query leaves them as it found them
/// (labels -1, counts 0, `touched` empty), so only the first query on a
/// scratch pays an n-sized fill. Not thread-safe: one per thread.
struct CountScratch {
  /// Per tuple: its class in the left operand of ProductExcess, or -1.
  std::vector<int32_t> label;
  /// Per left class (ProductExcess) or per value code (Removals).
  std::vector<uint32_t> count;
  /// The `count` slots the current class set, reset after it.
  std::vector<uint32_t> touched;
};

/// \brief A stripped partition (position-list index) over an attribute set.
///
/// Tuples are grouped into equivalence classes by their projection onto the
/// attribute set; classes of size one are stripped (TANE convention), so an
/// empty class list means the attribute set is a key. Partitions support the
/// linear-time product used by level-wise FD discovery and the g3
/// approximation error of Kivinen & Mannila used throughout the paper.
///
/// Storage is CSR (compressed sparse row): one contiguous element array
/// holding every stripped tuple id, class by class, plus an offset array
/// with NumClasses() + 1 entries. Classes appear in ascending order of
/// their first (smallest) member and list members ascending — the same
/// deterministic order the nested-vector layout produced — so every
/// consumer (products, g3 scans, the violation engine's class walks) sees
/// byte-identical sequences while touching two flat arrays instead of a
/// pointer per class (DESIGN.md §14).
///
/// Thread safety: a Partition is immutable after construction, and every
/// const member (Product, FdError, KeyError, accessors) touches only local
/// state — concurrent calls on shared Partition objects are safe. Parallel
/// TANE relies on this (see DESIGN.md "Parallel discovery").
class Partition {
 public:
  /// One equivalence class: a view into the flat element array.
  using ClassView = ConstSpan<TupleId>;

  /// The partition where every tuple is in one class (projection onto the
  /// empty attribute set).
  static Partition ForEmptySet(TupleId num_rows);

  /// Builds the partition of a single column.
  static Partition ForColumn(const Relation& relation, int col);

  /// Builds the partition of an arbitrary attribute set via products.
  /// Prefer PartitionCache when computing many related partitions.
  static Partition ForAttributes(const Relation& relation,
                                 const AttributeSet& attrs);

  /// Wraps an externally assembled CSR (flat element array + offsets) as a
  /// partition. The live-mutation layer patches column partitions in O(Δ)
  /// and emits the result here; the private constructor's invariants
  /// (offsets bracket elems, every class >= 2, front offset 0) still apply,
  /// so a malformed splice trips the same checks a bad build would.
  static Partition FromCsr(TupleId num_rows, std::vector<TupleId> elems,
                           std::vector<uint32_t> offsets) {
    return Partition(num_rows, std::move(elems), std::move(offsets));
  }

  /// The product (refinement) of two partitions: classes are intersections.
  /// Linear in the stripped sizes (TANE, Alg. PRODUCT); one probe-table
  /// pass per class of `other`, no per-class allocations.
  Partition Product(const Partition& other) const;

  /// Number of stripped (size >= 2) classes.
  size_t NumClasses() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Total number of tuples across stripped classes (the ||pi|| of TANE).
  size_t StrippedSize() const { return elems_.size(); }

  TupleId NumRows() const { return num_rows_; }

  /// True iff every class is a singleton, i.e., the attribute set is a key.
  bool IsKey() const { return NumClasses() == 0; }

  /// The i-th stripped class (members ascending).
  ClassView Class(size_t i) const {
    UGUIDE_DCHECK(i + 1 < offsets_.size());
    return ClassView(elems_.data() + offsets_[i],
                     offsets_[i + 1] - offsets_[i]);
  }

  /// The flat element array (class by class) and its offsets; exposed for
  /// tests and tooling that validate the CSR invariants.
  ConstSpan<TupleId> elements() const {
    return ConstSpan<TupleId>(elems_.data(), elems_.size());
  }
  ConstSpan<uint32_t> offsets() const {
    return ConstSpan<uint32_t>(offsets_.data(), offsets_.size());
  }

  /// The g3 error of the FD X -> A given pi_X (this) and pi_{X+A}
  /// (`refined`): the fraction of tuples that must be removed for the FD to
  /// hold exactly. Both partitions must be over the same relation.
  double FdError(const Partition& refined) const;

  /// The key error e(X) = Excess() / n: fraction of tuples to remove to
  /// make the attribute set a key.
  double KeyError() const;

  /// ||pi|| - |pi|, the key error's integer numerator. TANE's lemma bounds
  /// the g3 numerator of X -> A by it: with this = pi_X and the product
  /// pi_{X+A}, Excess() - pi_{X+A}.Excess() <= Removals(A) <= Excess(), and
  /// the FD holds exactly iff the two excesses are equal.
  size_t Excess() const { return StrippedSize() - NumClasses(); }

  /// Product(other).Excess(), counted without building the product.
  size_t ProductExcess(const Partition& other, CountScratch& scratch) const;

  /// The g3 numerator of X -> `rhs` (this = pi_X) over `relation`: per
  /// class, its size minus the count of its most frequent `rhs` value,
  /// read straight from the column. Equals FdError(pi_{X+rhs}) * n without
  /// the refined partition.
  size_t Removals(const Relation& relation, int rhs,
                  CountScratch& scratch) const;

  /// Approximate heap footprint in bytes, fixed at construction: the CSR
  /// element payload plus the offset array (sizes, not capacities), plus
  /// the object header. Deliberately size-based so the figure is identical
  /// for mathematically equal partitions regardless of how they were
  /// produced — memory-budget truncation decisions must not depend on
  /// allocator growth policy. The constant differs from the nested-vector
  /// layout's (a 4-byte offset replaces a 24-byte vector header per class;
  /// see DESIGN.md §14) but is equally deterministic.
  size_t ApproxBytes() const { return approx_bytes_; }

 private:
  Partition(TupleId num_rows, std::vector<TupleId> elems,
            std::vector<uint32_t> offsets);

  TupleId num_rows_ = 0;
  size_t approx_bytes_ = 0;
  /// Stripped tuple ids, class by class; members ascending within a class.
  std::vector<TupleId> elems_;
  /// Class i spans elems_[offsets_[i], offsets_[i+1]). NumClasses() + 1
  /// entries (a single 0 for an empty partition), first entry 0.
  std::vector<uint32_t> offsets_;
};

/// \brief Memoizing provider of partitions for one relation.
///
/// Caches every requested attribute-set partition; composite sets are built
/// by recursive products. Also answers g3 error queries for arbitrary FDs,
/// which is the workhorse of candidate-FD relaxation (§3.1).
///
/// NOT thread-safe: Get() mutates the cache. Use one PartitionCache per
/// thread, or the shared immutable Partition API above, when parallelizing.
class PartitionCache {
 public:
  explicit PartitionCache(const Relation* relation);

  /// The (cached) partition of `attrs`.
  const Partition& Get(const AttributeSet& attrs);

  /// g3 error of `fd` on the relation.
  double FdError(const Fd& fd);

  /// Number of partitions currently cached (observability/testing).
  size_t CacheSize() const { return cache_.size(); }

 private:
  const Relation* relation_;
  std::unordered_map<AttributeSet, Partition, AttributeSetHash> cache_;
};

/// \brief Budget-governed, thread-safe partition store with LRU eviction
/// and recompute-on-miss.
///
/// The resource-governance substrate of FD discovery (DESIGN.md §8): every
/// admitted partition is charged against a shared MemoryBudget, and when
/// the soft limit is exceeded the least-recently-used *unpinned* entries
/// are evicted — they are recomputable from the relation, so eviction
/// trades recompute time for memory instead of failing. A later Get of an
/// evicted set transparently rebuilds it from column partitions.
///
/// Ownership is by shared_ptr: Get pins the partition for the caller, so
/// eviction can never dangle a reference — an entry's bytes are released
/// when the last holder (store or caller) drops it. Entries inserted with
/// `pinned = true` (the empty set and the singleton columns, i.e. the
/// recompute base) are never evicted.
///
/// With a null budget the store is a plain memoizing cache: nothing is
/// charged and nothing is ever evicted, so governed and ungoverned
/// discovery traverse identical state.
class PartitionStore {
 public:
  /// `relation` must outlive the store; `budget` may be null (ungoverned).
  PartitionStore(const Relation* relation, MemoryBudget* budget);

  /// The partition of `attrs`, recomputing it if it was evicted (or never
  /// admitted). Never fails: a partition that no longer fits the budget is
  /// force-charged while alive and simply not re-admitted to the cache.
  std::shared_ptr<const Partition> Get(const AttributeSet& attrs);

  /// As Get(), but a missing partition is produced by `build` instead of
  /// Partition::ForAttributes. Callers with a cheaper recompute path (e.g.
  /// the violation engine, which composes from cached sub-partitions)
  /// inject it here; `build` runs outside the store lock and may itself
  /// call Get() on other attribute sets.
  std::shared_ptr<const Partition> Get(const AttributeSet& attrs,
                                       const std::function<Partition()>& build);

  /// Admits a freshly computed partition, charging its footprint. When the
  /// charge would cross the hard limit, unpinned LRU entries are evicted to
  /// make room; returns false (and drops `partition`) iff the hard limit
  /// cannot be respected even then — the caller's truncation signal.
  bool Put(const AttributeSet& attrs, Partition partition,
           bool pinned = false);

  /// Admits an externally accounted partition handle without charging the
  /// budget: the bytes stay owned by whoever created the handle (the live
  /// dataset shares one handle across epoch stores, so charging each store
  /// would double-count). No-op when `attrs` is already resident.
  void PutShared(const AttributeSet& attrs,
                 std::shared_ptr<const Partition> partition,
                 bool pinned = true);

  /// All resident entries (attribute set + handle), unspecified order. The
  /// live dataset harvests surviving partitions from an outgoing epoch's
  /// engine through this to seed the next epoch.
  std::vector<std::pair<AttributeSet, std::shared_ptr<const Partition>>>
  Snapshot() const;

  /// Advances the store to data version `version`: entries whose attribute
  /// set intersects `dirty` are patched in place (singleton sets, via
  /// `patch(col)`) or dropped (composite sets — a dirty input invalidates
  /// the product; the empty set — its row census may have changed), and
  /// every clean entry is kept verbatim. `patch` runs under the store lock
  /// and must return the canonical partition of the mutated column.
  void AdvanceTo(uint64_t version, const AttributeSet& dirty,
                 const std::function<std::shared_ptr<const Partition>(int)>&
                     patch);

  /// Data version last passed to AdvanceTo (0 for a never-advanced store).
  uint64_t version() const;

  /// Drops the entry for `attrs` if present, pinned or not (levels that
  /// fall out of the TANE traversal release their memory here). Bytes are
  /// released once the last outstanding Get handle dies.
  void Erase(const AttributeSet& attrs);

  /// Evicts unpinned LRU entries until the budget's soft limit is met or
  /// nothing evictable remains. Called between traversal phases, when
  /// transient pins have been dropped.
  void EvictToSoftLimit();

  /// Entries currently resident (pinned + unpinned).
  size_t Size() const;
  /// Entries evicted by budget pressure since construction.
  size_t evictions() const;
  /// Get() calls that had to rebuild an absent/evicted partition.
  size_t recomputes() const;

 private:
  struct Entry {
    std::shared_ptr<const Partition> partition;
    bool pinned = false;
    /// Position in lru_ (unpinned entries only).
    std::list<AttributeSet>::iterator lru_pos;
  };

  /// Wraps `partition` in a shared_ptr whose deleter releases the charge.
  std::shared_ptr<const Partition> Account(Partition partition) const;
  /// Evicts LRU entries (unpinned, not externally held) until `fits()`
  /// returns true or no victim remains. Caller holds mu_.
  template <typename Fits>
  bool EvictUntilLocked(const Fits& fits);

  const Relation* relation_;
  MemoryBudget* budget_;
  mutable std::mutex mu_;
  std::unordered_map<AttributeSet, Entry, AttributeSetHash> entries_;
  /// Front = most recently used. Unpinned entries only.
  std::list<AttributeSet> lru_;
  size_t evictions_ = 0;
  size_t recomputes_ = 0;
  uint64_t version_ = 0;
};

}  // namespace uguide

#endif  // UGUIDE_DISCOVERY_PARTITION_H_
