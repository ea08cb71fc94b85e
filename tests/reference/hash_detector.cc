#include "reference/hash_detector.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"

namespace uguide {

namespace {

struct VecHash {
  size_t operator()(const std::vector<ValueCode>& v) const {
    size_t seed = v.size();
    for (ValueCode c : v) HashCombine(seed, c);
    return seed;
  }
};

// Groups row ids by their projection onto `cols` (per-group row order
// follows the relation, giving deterministic output).
std::unordered_map<std::vector<ValueCode>, std::vector<TupleId>, VecHash>
GroupByProjection(const Relation& relation, const std::vector<int>& cols) {
  std::unordered_map<std::vector<ValueCode>, std::vector<TupleId>, VecHash>
      groups;
  std::vector<ValueCode> key(cols.size());
  for (TupleId r = 0; r < relation.NumRows(); ++r) {
    for (size_t i = 0; i < cols.size(); ++i) {
      key[i] = relation.Code(r, cols[i]);
    }
    groups[key].push_back(r);
  }
  return groups;
}

// True iff the group holds at least two distinct RHS values.
bool GroupIsImpure(const Relation& relation, int rhs,
                   const std::vector<TupleId>& group) {
  if (group.size() < 2) return false;
  const ValueCode first = relation.Code(group[0], rhs);
  for (size_t i = 1; i < group.size(); ++i) {
    if (relation.Code(group[i], rhs) != first) return true;
  }
  return false;
}

// Appends the g3-minority rows of one LHS-group to `out`. The majority
// value is the most frequent RHS code; ties break toward the code seen
// first in the group (deterministic).
void CollectMinorityRows(const Relation& relation, int rhs,
                         const std::vector<TupleId>& group,
                         std::vector<TupleId>& out) {
  if (group.size() < 2) return;
  std::unordered_map<ValueCode, size_t> counts;
  std::vector<ValueCode> first_seen;
  for (TupleId r : group) {
    ValueCode code = relation.Code(r, rhs);
    if (counts[code]++ == 0) first_seen.push_back(code);
  }
  if (counts.size() <= 1) return;
  ValueCode majority = first_seen[0];
  for (ValueCode code : first_seen) {
    if (counts[code] > counts[majority]) majority = code;
  }
  for (TupleId r : group) {
    if (relation.Code(r, rhs) != majority) out.push_back(r);
  }
}

}  // namespace

std::vector<TupleId> ViolatingTuples(const Relation& relation, const Fd& fd) {
  UGUIDE_CHECK(fd.IsValidShape());
  UGUIDE_CHECK(fd.rhs < relation.NumAttributes());
  std::vector<TupleId> out;
  auto groups = GroupByProjection(relation, fd.lhs.ToVector());
  for (const auto& [key, group] : groups) {
    if (GroupIsImpure(relation, fd.rhs, group)) {
      out.insert(out.end(), group.begin(), group.end());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Cell> ViolatingCells(const Relation& relation, const Fd& fd) {
  std::vector<TupleId> rows = ViolatingTuples(relation, fd);
  std::vector<Cell> cells;
  cells.reserve(rows.size());
  for (TupleId r : rows) cells.push_back(Cell{r, fd.rhs});
  return cells;
}

std::vector<TupleId> G3RemovalTuples(const Relation& relation, const Fd& fd) {
  UGUIDE_CHECK(fd.IsValidShape());
  UGUIDE_CHECK(fd.rhs < relation.NumAttributes());
  std::vector<TupleId> out;
  auto groups = GroupByProjection(relation, fd.lhs.ToVector());
  for (const auto& [key, group] : groups) {
    CollectMinorityRows(relation, fd.rhs, group, out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Cell> G3RemovalCells(const Relation& relation, const Fd& fd) {
  std::vector<TupleId> rows = G3RemovalTuples(relation, fd);
  std::vector<Cell> cells;
  cells.reserve(rows.size());
  for (TupleId r : rows) cells.push_back(Cell{r, fd.rhs});
  return cells;
}

bool HasViolations(const Relation& relation, const Fd& fd) {
  UGUIDE_CHECK(fd.IsValidShape());
  auto groups = GroupByProjection(relation, fd.lhs.ToVector());
  for (const auto& [key, group] : groups) {
    if (GroupIsImpure(relation, fd.rhs, group)) return true;
  }
  return false;
}

std::vector<int> ViolationCountPerTuple(const Relation& relation,
                                        const FdSet& fds) {
  std::vector<int> counts(static_cast<size_t>(relation.NumRows()), 0);
  for (const Fd& fd : fds) {
    for (TupleId r : G3RemovalTuples(relation, fd)) {
      ++counts[static_cast<size_t>(r)];
    }
  }
  return counts;
}

ViolationGraph BuildReferenceGraph(const Relation& relation,
                                   const FdSet& candidates) {
  std::vector<Fd> fds(candidates.begin(), candidates.end());
  std::vector<std::vector<Cell>> per_fd;
  per_fd.reserve(fds.size());
  for (const Fd& fd : fds) per_fd.push_back(ViolatingCells(relation, fd));
  return ViolationGraph::FromPerFdCells(std::move(fds), per_fd);
}

}  // namespace uguide
