#ifndef UGUIDE_DISCOVERY_PARTITION_H_
#define UGUIDE_DISCOVERY_PARTITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/attribute_set.h"
#include "common/span.h"
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
  /// Prefer a PartitionStore when computing many related partitions.
  static Partition ForAttributes(const Relation& relation,
                                 const AttributeSet& attrs);

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
  /// produced — memory-cap truncation decisions must not depend on
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

/// \brief Thread-safe memo of partitions for one relation, keyed by
/// attribute set.
///
/// The shared partition cache of FD discovery and the violation engine:
/// TANE puts each level's products here and erases them when the walk
/// moves past them; the engine builds LHS partitions on a miss. Handles
/// are shared_ptrs, so an erased entry stays valid for whoever still holds
/// it. The store itself bounds nothing: TANE's memory cap
/// (TaneOptions::memory_limit_bytes) sums Partition::ApproxBytes over its
/// own puts and erases.
class PartitionStore {
 public:
  /// `relation` must outlive the store.
  explicit PartitionStore(const Relation* relation);

  /// The partition of `attrs`, built by Partition::ForAttributes and
  /// memoized on a miss.
  std::shared_ptr<const Partition> Get(const AttributeSet& attrs);

  /// As Get(), but a missing partition is produced by `build` instead of
  /// Partition::ForAttributes. Callers with a cheaper path (e.g. the
  /// violation engine, which composes from cached sub-partitions) inject
  /// it here; `build` runs outside the store lock and may itself call
  /// Get() on other attribute sets.
  std::shared_ptr<const Partition> Get(const AttributeSet& attrs,
                                       const std::function<Partition()>& build);

  /// Stores a computed partition. No-op when `attrs` is already resident.
  void Put(const AttributeSet& attrs, Partition partition);

  /// Drops the entry for `attrs` if present and returns its
  /// Partition::ApproxBytes (0 when absent). Levels that fall out of the
  /// TANE traversal release their memory here.
  size_t Erase(const AttributeSet& attrs);

  /// Entries currently resident.
  size_t Size() const;
  /// Get() calls that had to build an absent partition.
  size_t misses() const;

 private:
  const Relation* relation_;
  mutable std::mutex mu_;
  std::unordered_map<AttributeSet, std::shared_ptr<const Partition>,
                     AttributeSetHash>
      entries_;
  size_t misses_ = 0;
};

}  // namespace uguide

#endif  // UGUIDE_DISCOVERY_PARTITION_H_
