#include "discovery/partition.h"

#include <algorithm>

namespace uguide {

Partition::Partition(TupleId num_rows, std::vector<TupleId> elems,
                     std::vector<uint32_t> offsets)
    : num_rows_(num_rows),
      elems_(std::move(elems)),
      offsets_(std::move(offsets)) {
  if (offsets_.empty()) offsets_.push_back(0);
  UGUIDE_DCHECK(offsets_.front() == 0);
  UGUIDE_DCHECK(offsets_.back() == elems_.size());
#ifndef NDEBUG
  for (size_t i = 0; i + 1 < offsets_.size(); ++i) {
    UGUIDE_DCHECK(offsets_[i + 1] - offsets_[i] >= 2);
  }
#endif
  approx_bytes_ = sizeof(Partition) + offsets_.size() * sizeof(uint32_t) +
                  elems_.size() * sizeof(TupleId);
}

Partition Partition::ForEmptySet(TupleId num_rows) {
  std::vector<TupleId> elems;
  std::vector<uint32_t> offsets{0};
  if (num_rows >= 2) {
    elems.resize(static_cast<size_t>(num_rows));
    for (TupleId t = 0; t < num_rows; ++t) elems[static_cast<size_t>(t)] = t;
    offsets.push_back(static_cast<uint32_t>(num_rows));
  }
  return Partition(num_rows, std::move(elems), std::move(offsets));
}

Partition Partition::ForColumn(const Relation& relation, int col) {
  const std::vector<ValueCode>& codes = relation.ColumnCodes(col);
  const TupleId n = relation.NumRows();
  // Codes are dense pool-wide, so a direct-address table replaces hashing:
  // count occurrences per code, assign class ids to non-singleton codes in
  // first-seen order (== ascending first row, the deterministic class
  // order), then scatter rows into the flat element array.
  const size_t num_codes = relation.pool().Size();
  std::vector<int32_t> count(num_codes, 0);
  for (TupleId t = 0; t < n; ++t) {
    ++count[static_cast<size_t>(codes[static_cast<size_t>(t)])];
  }
  std::vector<int32_t> class_of_code(num_codes, -1);
  std::vector<uint32_t> offsets{0};
  uint32_t total = 0;
  for (TupleId t = 0; t < n; ++t) {
    const size_t c = static_cast<size_t>(codes[static_cast<size_t>(t)]);
    if (count[c] >= 2 && class_of_code[c] < 0) {
      class_of_code[c] = static_cast<int32_t>(offsets.size() - 1);
      total += static_cast<uint32_t>(count[c]);
      offsets.push_back(total);
    }
  }
  std::vector<TupleId> elems(total);
  // Per-class write cursor, initialized to each class's start offset.
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (TupleId t = 0; t < n; ++t) {
    const int32_t cls =
        class_of_code[static_cast<size_t>(codes[static_cast<size_t>(t)])];
    if (cls >= 0) elems[cursor[static_cast<size_t>(cls)]++] = t;
  }
  return Partition(n, std::move(elems), std::move(offsets));
}

Partition Partition::ForAttributes(const Relation& relation,
                                   const AttributeSet& attrs) {
  if (attrs.Empty()) return ForEmptySet(relation.NumRows());
  std::vector<int> cols = attrs.ToVector();
  Partition result = ForColumn(relation, cols[0]);
  for (size_t i = 1; i < cols.size(); ++i) {
    result = result.Product(ForColumn(relation, cols[i]));
  }
  return result;
}

Partition Partition::Product(const Partition& other) const {
  UGUIDE_CHECK_EQ(num_rows_, other.num_rows_);
  // TANE's linear product: label tuples with their class index in `this`,
  // then split each class of `other` by that label. Two passes per class of
  // `other` — count per touched label, then scatter straight into the
  // result's flat element array — so no per-class vectors are allocated.
  const size_t nc = NumClasses();
  std::vector<int32_t> label(static_cast<size_t>(num_rows_), -1);
  for (size_t i = 0; i < nc; ++i) {
    for (TupleId t : Class(i)) {
      label[static_cast<size_t>(t)] = static_cast<int32_t>(i);
    }
  }
  // Groups are emitted per other-class in first-touch label order with
  // members ascending — identical to the nested-vector layout's order.
  std::vector<int32_t> count(nc, 0);
  std::vector<uint32_t> pos(nc, 0);
  std::vector<int32_t> touched;
  touched.reserve(nc);
  constexpr uint32_t kSkip = static_cast<uint32_t>(-1);
  std::vector<TupleId> elems;
  elems.reserve(std::min(StrippedSize(), other.StrippedSize()));
  std::vector<uint32_t> offsets{0};
  for (size_t oc = 0; oc < other.NumClasses(); ++oc) {
    const ClassView cls = other.Class(oc);
    for (TupleId t : cls) {
      const int32_t l = label[static_cast<size_t>(t)];
      if (l < 0) continue;
      if (count[static_cast<size_t>(l)] == 0) touched.push_back(l);
      ++count[static_cast<size_t>(l)];
    }
    uint32_t base = offsets.back();
    for (int32_t l : touched) {
      const size_t li = static_cast<size_t>(l);
      if (count[li] >= 2) {
        pos[li] = base;
        base += static_cast<uint32_t>(count[li]);
        offsets.push_back(base);
      } else {
        pos[li] = kSkip;
      }
    }
    if (base > elems.size()) elems.resize(base);
    for (TupleId t : cls) {
      const int32_t l = label[static_cast<size_t>(t)];
      if (l < 0) continue;
      const size_t li = static_cast<size_t>(l);
      if (pos[li] == kSkip) continue;
      elems[pos[li]++] = t;
    }
    for (int32_t l : touched) count[static_cast<size_t>(l)] = 0;
    touched.clear();
  }
  return Partition(num_rows_, std::move(elems), std::move(offsets));
}

double Partition::FdError(const Partition& refined) const {
  UGUIDE_CHECK_EQ(num_rows_, refined.num_rows_);
  if (num_rows_ == 0) return 0.0;
  // tmp[t] = size of t's class in the refined partition (0 for stripped
  // singletons, treated as 1 below).
  std::vector<int32_t> tmp(static_cast<size_t>(num_rows_), 0);
  for (size_t i = 0; i < refined.NumClasses(); ++i) {
    const ClassView cls = refined.Class(i);
    for (TupleId t : cls) {
      tmp[static_cast<size_t>(t)] = static_cast<int32_t>(cls.size());
    }
  }
  size_t removed = 0;
  for (size_t i = 0; i < NumClasses(); ++i) {
    const ClassView cls = Class(i);
    int32_t max_subclass = 1;
    for (TupleId t : cls) {
      max_subclass = std::max(max_subclass, tmp[static_cast<size_t>(t)]);
    }
    removed += cls.size() - static_cast<size_t>(max_subclass);
  }
  return static_cast<double>(removed) / static_cast<double>(num_rows_);
}

double Partition::KeyError() const {
  if (num_rows_ == 0) return 0.0;
  return static_cast<double>(Excess()) / static_cast<double>(num_rows_);
}

size_t Partition::ProductExcess(const Partition& other,
                                CountScratch& scratch) const {
  UGUIDE_CHECK_EQ(num_rows_, other.num_rows_);
  // Product()'s labelling pass, then per class of `other` one count per
  // touched label: every member after a group's first adds one to the
  // excess, so the groups themselves are never laid out.
  std::vector<int32_t>& label = scratch.label;
  std::vector<uint32_t>& count = scratch.count;
  if (label.size() < static_cast<size_t>(num_rows_)) {
    label.resize(static_cast<size_t>(num_rows_), -1);
  }
  if (count.size() < NumClasses()) count.resize(NumClasses(), 0);
  for (size_t i = 0; i < NumClasses(); ++i) {
    for (TupleId t : Class(i)) {
      label[static_cast<size_t>(t)] = static_cast<int32_t>(i);
    }
  }
  size_t excess = 0;
  for (size_t oc = 0; oc < other.NumClasses(); ++oc) {
    for (TupleId t : other.Class(oc)) {
      const int32_t l = label[static_cast<size_t>(t)];
      if (l < 0) continue;
      if (count[static_cast<size_t>(l)]++ == 0) {
        scratch.touched.push_back(static_cast<uint32_t>(l));
      } else {
        ++excess;
      }
    }
    for (uint32_t l : scratch.touched) count[l] = 0;
    scratch.touched.clear();
  }
  for (TupleId t : elems_) label[static_cast<size_t>(t)] = -1;
  return excess;
}

size_t Partition::Removals(const Relation& relation, int rhs,
                           CountScratch& scratch) const {
  UGUIDE_CHECK_EQ(num_rows_, relation.NumRows());
  const std::vector<ValueCode>& codes = relation.ColumnCodes(rhs);
  std::vector<uint32_t>& count = scratch.count;
  if (count.size() < relation.pool().Size()) {
    count.resize(relation.pool().Size(), 0);
  }
  size_t removed = 0;
  for (size_t i = 0; i < NumClasses(); ++i) {
    const ClassView cls = Class(i);
    uint32_t most = 0;
    for (TupleId t : cls) {
      const uint32_t code =
          static_cast<uint32_t>(codes[static_cast<size_t>(t)]);
      if (count[code] == 0) scratch.touched.push_back(code);
      most = std::max(most, ++count[code]);
    }
    removed += cls.size() - most;
    for (uint32_t code : scratch.touched) count[code] = 0;
    scratch.touched.clear();
  }
  return removed;
}

PartitionStore::PartitionStore(const Relation* relation)
    : relation_(relation) {
  UGUIDE_CHECK(relation != nullptr);
}

std::shared_ptr<const Partition> PartitionStore::Get(
    const AttributeSet& attrs) {
  return Get(attrs,
             [&] { return Partition::ForAttributes(*relation_, attrs); });
}

std::shared_ptr<const Partition> PartitionStore::Get(
    const AttributeSet& attrs, const std::function<Partition()>& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(attrs);
    if (it != entries_.end()) return it->second;
    ++misses_;
  }
  // Build outside the lock: `build` may Get() other sets.
  auto built = std::make_shared<const Partition>(build());
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(attrs, std::move(built));
  return it->second;  // a racing build that landed first wins
}

void PartitionStore::Put(const AttributeSet& attrs, Partition partition) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(attrs) != 0) return;
  entries_.emplace(attrs,
                   std::make_shared<const Partition>(std::move(partition)));
}

size_t PartitionStore::Erase(const AttributeSet& attrs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(attrs);
  if (it == entries_.end()) return 0;
  const size_t bytes = it->second->ApproxBytes();
  entries_.erase(it);
  return bytes;
}

size_t PartitionStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t PartitionStore::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace uguide
