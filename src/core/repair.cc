#include "core/repair.h"

#include <unordered_map>

#include "common/hash.h"
#include "relation/cell_bitmap.h"
#include "violations/violation_engine.h"

namespace uguide {

namespace {

struct VecHash {
  size_t operator()(const std::vector<ValueCode>& v) const {
    size_t seed = v.size();
    for (ValueCode c : v) HashCombine(seed, c);
    return seed;
  }
};

}  // namespace

RepairResult RepairWithFds(const Relation& dirty, const FdSet& accepted,
                           const RepairOptions& options,
                           ViolationEngine* engine) {
  RepairResult result{dirty, {}};
  CellBitmap repaired_cells(dirty.NumRows(), dirty.NumAttributes());

  // Cells any accepted FD blames (g3 removal sets on the original dirty
  // table); used by the LHS-suspicion guard.
  CellBitmap suspicious(dirty.NumRows(), dirty.NumAttributes());
  if (options.guard_suspicious_lhs) {
    EngineRef shared(engine, &dirty);
    for (const Fd& fd : accepted) {
      for (const Cell& cell : shared->G3RemovalCells(fd)) {
        suspicious.Set(cell);
      }
    }
  }

  for (const Fd& fd : accepted) {
    // Group rows by the FD's LHS projection on the *current* table state.
    const std::vector<int> cols = fd.lhs.ToVector();
    std::unordered_map<std::vector<ValueCode>, std::vector<TupleId>, VecHash>
        groups;
    std::vector<ValueCode> key(cols.size());
    for (TupleId r = 0; r < result.repaired.NumRows(); ++r) {
      for (size_t i = 0; i < cols.size(); ++i) {
        key[i] = result.repaired.Code(r, cols[i]);
      }
      groups[key].push_back(r);
    }
    for (const auto& [k, group] : groups) {
      if (group.size() < 2) continue;
      // Majority RHS value; ties break toward the first-seen value.
      std::unordered_map<ValueCode, size_t> counts;
      std::vector<ValueCode> first_seen;
      for (TupleId r : group) {
        ValueCode code = result.repaired.Code(r, fd.rhs);
        if (counts[code]++ == 0) first_seen.push_back(code);
      }
      if (counts.size() <= 1) continue;
      ValueCode majority = first_seen[0];
      for (ValueCode code : first_seen) {
        if (counts[code] > counts[majority]) majority = code;
      }
      // Require solid support: a near-tie majority is a coin flip, not a
      // repair (frequent in the tiny groups of incidental FDs).
      if (counts[majority] <
          static_cast<size_t>(options.min_majority_support)) {
        continue;
      }
      bool strict = true;
      for (ValueCode code : first_seen) {
        if (code != majority && counts[code] == counts[majority]) {
          strict = false;
          break;
        }
      }
      if (!strict) continue;
      const std::string majority_value =
          result.repaired.pool().Lookup(majority);
      for (TupleId r : group) {
        if (result.repaired.Code(r, fd.rhs) == majority) continue;
        const Cell cell{r, fd.rhs};
        if (repaired_cells.Test(cell)) continue;  // already fixed
        // LHS-vs-RHS guard: if another accepted FD blames one of this
        // tuple's LHS cells, the tuple was likely relocated into this
        // group by that LHS error; leave the RHS alone.
        if (options.guard_suspicious_lhs) {
          bool lhs_suspect = false;
          for (int b : fd.lhs) {
            if (suspicious.Test(Cell{r, b})) {
              lhs_suspect = true;
              break;
            }
          }
          if (lhs_suspect) continue;
        }
        repaired_cells.Set(cell);
        CellRepair repair;
        repair.cell = cell;
        repair.old_value = result.repaired.Value(cell);
        repair.new_value = majority_value;
        result.repaired.SetValue(cell.row, cell.col, majority_value);
        result.repairs.push_back(std::move(repair));
      }
    }
  }
  return result;
}

RepairMetrics EvaluateRepairs(const Relation& clean, const GroundTruth& truth,
                              const RepairResult& result) {
  RepairMetrics metrics;
  metrics.repairs = result.repairs.size();
  metrics.total_errors = truth.NumChanged();
  for (const CellRepair& repair : result.repairs) {
    if (repair.new_value == clean.Value(repair.cell)) {
      ++metrics.correct_repairs;
    }
  }
  for (const Cell& cell : truth.ChangedCells()) {
    if (result.repaired.Value(cell) == clean.Value(cell)) {
      ++metrics.errors_fixed;
    }
  }
  return metrics;
}

}  // namespace uguide
