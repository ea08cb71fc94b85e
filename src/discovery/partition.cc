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

PartitionCache::PartitionCache(const Relation* relation)
    : relation_(relation) {
  UGUIDE_CHECK(relation != nullptr);
}

const Partition& PartitionCache::Get(const AttributeSet& attrs) {
  auto it = cache_.find(attrs);
  if (it != cache_.end()) return it->second;
  Partition p = [&] {
    if (attrs.Empty()) return Partition::ForEmptySet(relation_->NumRows());
    if (attrs.Size() == 1) {
      return Partition::ForColumn(*relation_, attrs.Lowest());
    }
    // Split off the lowest attribute and recurse; memoization makes related
    // lookups (as produced by relaxation's subset walks) cheap.
    int low = attrs.Lowest();
    const Partition& rest = Get(attrs.Without(low));
    // Get() may rehash the cache; take the column partition afterwards.
    Partition col = Partition::ForColumn(*relation_, low);
    return rest.Product(col);
  }();
  auto [inserted, ok] = cache_.emplace(attrs, std::move(p));
  return inserted->second;
}

double PartitionCache::FdError(const Fd& fd) {
  UGUIDE_CHECK(fd.IsValidShape());
  // Note: Get() can rehash, so the lhs reference must not be held across
  // the second Get() call. Copy-free solution: look up in order and
  // re-fetch.
  Get(fd.lhs);
  Get(fd.lhs.With(fd.rhs));
  const Partition& lhs = cache_.at(fd.lhs);
  const Partition& both = cache_.at(fd.lhs.With(fd.rhs));
  return lhs.FdError(both);
}

PartitionStore::PartitionStore(const Relation* relation, MemoryBudget* budget)
    : relation_(relation), budget_(budget) {
  UGUIDE_CHECK(relation != nullptr);
}

std::shared_ptr<const Partition> PartitionStore::Account(
    Partition partition) const {
  // The caller has already charged ApproxBytes(); the deleter returns them
  // when the last holder (store entry or pinned Get handle) lets go, so
  // eviction can never under-release and an in-use partition stays
  // accounted for.
  if (budget_ == nullptr) {
    return std::make_shared<const Partition>(std::move(partition));
  }
  const size_t bytes = partition.ApproxBytes();
  MemoryBudget* budget = budget_;
  return std::shared_ptr<const Partition>(
      new Partition(std::move(partition)), [budget, bytes](const Partition* p) {
        budget->Release(bytes);
        delete p;
      });
}

template <typename Fits>
bool PartitionStore::EvictUntilLocked(const Fits& fits) {
  if (fits()) return true;
  // Walk the LRU list from cold to hot. Entries still held by a caller
  // (use_count > 1) are skipped: evicting them would free nothing until the
  // pin drops, so they cannot help this caller fit.
  auto victim = lru_.end();
  while (victim != lru_.begin()) {
    --victim;
    auto it = entries_.find(*victim);
    UGUIDE_DCHECK(it != entries_.end());
    if (it->second.partition.use_count() > 1) continue;
    entries_.erase(it);
    victim = lru_.erase(victim);
    ++evictions_;
    if (fits()) return true;
  }
  return fits();
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
    if (it != entries_.end()) {
      if (!it->second.pinned) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      }
      return it->second.partition;
    }
    ++recomputes_;
  }
  // Evicted (or never admitted): rebuild outside the lock — by default
  // products of column partitions, the same computation that produced it
  // originally. The rebuild is force-charged: the caller depends on it
  // existing, so the budget absorbs a transient overshoot rather than fail;
  // re-admission below restores the soft limit by evicting colder entries.
  Partition rebuilt = build();
  if (budget_ != nullptr) budget_->ForceCharge(rebuilt.ApproxBytes());
  std::shared_ptr<const Partition> handle = Account(std::move(rebuilt));

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(attrs);
  if (!inserted) return it->second.partition;  // lost a rebuild race
  it->second.partition = handle;
  lru_.push_front(attrs);
  it->second.lru_pos = lru_.begin();
  if (budget_ != nullptr && budget_->OverSoftLimit()) {
    EvictUntilLocked([&] { return !budget_->OverSoftLimit(); });
  }
  return handle;
}

bool PartitionStore::Put(const AttributeSet& attrs, Partition partition,
                         bool pinned) {
  const size_t bytes = partition.ApproxBytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(attrs) != 0) return true;  // already resident
  if (budget_ != nullptr &&
      !EvictUntilLocked([&] { return budget_->TryCharge(bytes); })) {
    return false;
  }
  auto [it, inserted] = entries_.try_emplace(attrs);
  UGUIDE_DCHECK(inserted);
  it->second.partition = Account(std::move(partition));
  it->second.pinned = pinned;
  if (!pinned) {
    lru_.push_front(attrs);
    it->second.lru_pos = lru_.begin();
  }
  if (budget_ != nullptr && budget_->OverSoftLimit()) {
    EvictUntilLocked([&] { return !budget_->OverSoftLimit(); });
  }
  return true;
}

void PartitionStore::PutShared(const AttributeSet& attrs,
                               std::shared_ptr<const Partition> partition,
                               bool pinned) {
  UGUIDE_CHECK(partition != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(attrs);
  if (!inserted) return;  // already resident
  it->second.partition = std::move(partition);
  it->second.pinned = pinned;
  if (!pinned) {
    lru_.push_front(attrs);
    it->second.lru_pos = lru_.begin();
  }
}

std::vector<std::pair<AttributeSet, std::shared_ptr<const Partition>>>
PartitionStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<AttributeSet, std::shared_ptr<const Partition>>> out;
  out.reserve(entries_.size());
  for (const auto& [attrs, entry] : entries_) {
    out.emplace_back(attrs, entry.partition);
  }
  return out;
}

void PartitionStore::AdvanceTo(
    uint64_t version, const AttributeSet& dirty,
    const std::function<std::shared_ptr<const Partition>(int)>& patch) {
  std::lock_guard<std::mutex> lock(mu_);
  // Patch dirty singletons in place; composite sets touching the scope are
  // dropped (a dirty input invalidates the whole product), and so is the
  // empty set (appends change its single class). Clean entries survive
  // verbatim — safe because NumRows only changes on appends, which dirty
  // every attribute.
  std::vector<AttributeSet> stale;
  for (auto& [attrs, entry] : entries_) {
    if (attrs.Empty()) {
      if (!dirty.Empty()) stale.push_back(attrs);
      continue;
    }
    if (!attrs.Intersects(dirty)) continue;
    if (attrs.Size() == 1) {
      entry.partition = patch(attrs.Lowest());
      UGUIDE_CHECK(entry.partition != nullptr);
    } else {
      stale.push_back(attrs);
    }
  }
  for (const AttributeSet& attrs : stale) {
    auto it = entries_.find(attrs);
    if (!it->second.pinned) lru_.erase(it->second.lru_pos);
    entries_.erase(it);
  }
  version_ = version;
}

uint64_t PartitionStore::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

void PartitionStore::Erase(const AttributeSet& attrs) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(attrs);
  if (it == entries_.end()) return;
  if (!it->second.pinned) lru_.erase(it->second.lru_pos);
  entries_.erase(it);
}

void PartitionStore::EvictToSoftLimit() {
  if (budget_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  EvictUntilLocked([&] { return !budget_->OverSoftLimit(); });
}

size_t PartitionStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t PartitionStore::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t PartitionStore::recomputes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recomputes_;
}

}  // namespace uguide
