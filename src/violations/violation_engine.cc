#include "violations/violation_engine.h"

#include <algorithm>

namespace uguide {

namespace {

// True iff the class holds at least two distinct codes in `codes`. Classes
// always have >= 2 members (stripped partition invariant).
bool ClassIsImpure(const std::vector<ValueCode>& codes,
                   Partition::ClassView cls) {
  const ValueCode first = codes[static_cast<size_t>(cls[0])];
  for (size_t i = 1; i < cls.size(); ++i) {
    if (codes[static_cast<size_t>(cls[i])] != first) return true;
  }
  return false;
}

// Appends the g3-minority rows of one LHS class to `out`. Mirrors the
// reference detector exactly: the majority is the most frequent RHS code,
// ties breaking toward the code seen first in the class — classes list
// rows ascending, i.e. in relation order, so the tie-break coincides with
// the hash-grouped reference. Classes have few distinct codes in practice,
// so a linear scan over a flat (code, count) array beats hashing; the
// `distinct` vectors are caller-owned scratch reused across classes.
void CollectMinorityRows(const std::vector<ValueCode>& codes,
                         Partition::ClassView cls,
                         std::vector<ValueCode>& distinct_codes,
                         std::vector<size_t>& distinct_counts,
                         std::vector<TupleId>& out) {
  distinct_codes.clear();
  distinct_counts.clear();
  for (TupleId r : cls) {
    const ValueCode code = codes[static_cast<size_t>(r)];
    size_t i = 0;
    for (; i < distinct_codes.size(); ++i) {
      if (distinct_codes[i] == code) break;
    }
    if (i == distinct_codes.size()) {
      distinct_codes.push_back(code);
      distinct_counts.push_back(1);
    } else {
      ++distinct_counts[i];
    }
  }
  if (distinct_codes.size() <= 1) return;
  // first_seen order + strict > keeps the tie-break toward the earlier code.
  size_t majority = 0;
  for (size_t i = 1; i < distinct_codes.size(); ++i) {
    if (distinct_counts[i] > distinct_counts[majority]) majority = i;
  }
  const ValueCode majority_code = distinct_codes[majority];
  for (TupleId r : cls) {
    if (codes[static_cast<size_t>(r)] != majority_code) out.push_back(r);
  }
}

}  // namespace

ViolationEngine::ViolationEngine(const Relation* relation)
    : relation_(relation), store_(relation) {
  UGUIDE_CHECK(relation != nullptr);
}

std::shared_ptr<const Partition> ViolationEngine::LhsPartition(
    const AttributeSet& attrs) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  return store_.Get(attrs, [&]() -> Partition {
    if (attrs.Empty()) return Partition::ForEmptySet(relation_->NumRows());
    if (attrs.Size() == 1) {
      return Partition::ForColumn(*relation_, attrs.Lowest());
    }
    // Compose from cached sub-partitions: split off the lowest attribute
    // and recurse, so candidates sharing LHS suffixes reuse each other's
    // work. The store releases its lock before invoking this builder,
    // making the recursive Get safe.
    const int low = attrs.Lowest();
    std::shared_ptr<const Partition> rest = LhsPartition(attrs.Without(low));
    std::shared_ptr<const Partition> col =
        LhsPartition(AttributeSet::Single(low));
    return rest->Product(*col);
  });
}

std::vector<TupleId> ViolationEngine::ViolatingTuples(const Fd& fd) {
  std::vector<TupleId> out = ViolatingTuplesUnordered(fd);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TupleId> ViolationEngine::ViolatingTuplesUnordered(const Fd& fd) {
  UGUIDE_CHECK(fd.IsValidShape());
  UGUIDE_CHECK(fd.rhs < relation_->NumAttributes());
  const std::vector<ValueCode>& codes = relation_->ColumnCodes(fd.rhs);
  std::shared_ptr<const Partition> lhs = LhsPartition(fd.lhs);
  std::vector<TupleId> out;
  for (size_t i = 0; i < lhs->NumClasses(); ++i) {
    const Partition::ClassView cls = lhs->Class(i);
    if (ClassIsImpure(codes, cls)) {
      out.insert(out.end(), cls.begin(), cls.end());
    }
  }
  return out;
}

std::vector<Cell> ViolationEngine::ViolatingCells(const Fd& fd) {
  std::vector<TupleId> rows = ViolatingTuples(fd);
  std::vector<Cell> cells;
  cells.reserve(rows.size());
  for (TupleId r : rows) cells.push_back(Cell{r, fd.rhs});
  return cells;
}

CellBitmap ViolationEngine::ViolatingCellUnion(const FdSet& fds) {
  const TupleId rows = relation_->NumRows();
  const int cols = relation_->NumAttributes();
  CellBitmap cells(rows, cols);
  // Coarsest LHS first: X -> A flags every cell XY -> A does, so the
  // coarse FDs fill columns early and later groups find them saturated.
  std::vector<const Fd*> order;
  order.reserve(fds.Size());
  for (const Fd& fd : fds) {
    UGUIDE_CHECK(fd.IsValidShape());
    UGUIDE_CHECK(fd.rhs < cols);
    order.push_back(&fd);
  }
  std::sort(order.begin(), order.end(), [](const Fd* a, const Fd* b) {
    if (a->lhs.Size() != b->lhs.Size()) return a->lhs.Size() < b->lhs.Size();
    if (a->lhs != b->lhs) return a->lhs < b->lhs;
    return a->rhs < b->rhs;
  });
  // flagged[a]: cells of column a set so far; the column is saturated
  // once every row is flagged.
  std::vector<TupleId> flagged(static_cast<size_t>(cols), 0);
  std::vector<int> open_rhs;
  for (size_t begin = 0; begin < order.size();) {
    const AttributeSet lhs = order[begin]->lhs;
    size_t end = begin;
    open_rhs.clear();
    for (; end < order.size() && order[end]->lhs == lhs; ++end) {
      const int rhs = order[end]->rhs;
      if (flagged[static_cast<size_t>(rhs)] < rows) open_rhs.push_back(rhs);
    }
    begin = end;
    if (open_rhs.empty()) continue;
    std::shared_ptr<const Partition> partition = LhsPartition(lhs);
    for (int rhs : open_rhs) {
      const std::vector<ValueCode>& codes = relation_->ColumnCodes(rhs);
      TupleId& count = flagged[static_cast<size_t>(rhs)];
      for (size_t i = 0; i < partition->NumClasses() && count < rows; ++i) {
        const Partition::ClassView cls = partition->Class(i);
        if (!ClassIsImpure(codes, cls)) continue;
        count += static_cast<TupleId>(cells.InsertColumn(rhs, cls));
      }
    }
  }
  return cells;
}

template <typename RowFn>
void ViolationEngine::ForEachG3RemovalRow(const Fd& fd, const RowFn& fn) {
  UGUIDE_CHECK(fd.IsValidShape());
  UGUIDE_CHECK(fd.rhs < relation_->NumAttributes());
  const std::vector<ValueCode>& codes = relation_->ColumnCodes(fd.rhs);
  std::shared_ptr<const Partition> lhs = LhsPartition(fd.lhs);
  std::vector<TupleId> minority;
  std::vector<ValueCode> distinct_codes;
  std::vector<size_t> distinct_counts;
  for (size_t i = 0; i < lhs->NumClasses(); ++i) {
    minority.clear();
    CollectMinorityRows(codes, lhs->Class(i), distinct_codes, distinct_counts,
                        minority);
    for (TupleId r : minority) fn(r);
  }
}

std::vector<TupleId> ViolationEngine::G3RemovalTuples(const Fd& fd) {
  std::vector<TupleId> out = G3RemovalTuplesUnordered(fd);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TupleId> ViolationEngine::G3RemovalTuplesUnordered(const Fd& fd) {
  std::vector<TupleId> out;
  ForEachG3RemovalRow(fd, [&](TupleId r) { out.push_back(r); });
  return out;
}

std::vector<Cell> ViolationEngine::G3RemovalCells(const Fd& fd) {
  std::vector<TupleId> rows = G3RemovalTuples(fd);
  std::vector<Cell> cells;
  cells.reserve(rows.size());
  for (TupleId r : rows) cells.push_back(Cell{r, fd.rhs});
  return cells;
}

size_t ViolationEngine::G3RemovalCount(const Fd& fd) {
  size_t count = 0;
  ForEachG3RemovalRow(fd, [&](TupleId) { ++count; });
  return count;
}

bool ViolationEngine::HasViolations(const Fd& fd) {
  UGUIDE_CHECK(fd.IsValidShape());
  UGUIDE_CHECK(fd.rhs < relation_->NumAttributes());
  const std::vector<ValueCode>& codes = relation_->ColumnCodes(fd.rhs);
  std::shared_ptr<const Partition> lhs = LhsPartition(fd.lhs);
  for (size_t i = 0; i < lhs->NumClasses(); ++i) {
    if (ClassIsImpure(codes, lhs->Class(i))) return true;
  }
  return false;
}

size_t ViolationEngine::partition_hits() const {
  const size_t lookups = lookups_.load(std::memory_order_relaxed);
  const size_t misses = store_.misses();
  return lookups >= misses ? lookups - misses : 0;
}

size_t ViolationEngine::partition_misses() const {
  return store_.misses();
}

}  // namespace uguide
