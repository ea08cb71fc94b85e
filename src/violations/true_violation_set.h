#ifndef UGUIDE_VIOLATIONS_TRUE_VIOLATION_SET_H_
#define UGUIDE_VIOLATIONS_TRUE_VIOLATION_SET_H_

#include <vector>

#include "fd/fd.h"
#include "relation/cell_bitmap.h"
#include "relation/relation.h"

namespace uguide {

class ViolationEngine;

/// \brief The set E of cells violating at least one FD of `fds` on
/// `relation`.
///
/// With `fds` = Sigma_TC this is the paper's E_T -- the FD-detectable
/// errors; the simulated expert answers cell/tuple questions from it and
/// detection metrics measure against it (§7.1). A cell is flagged iff it
/// is the RHS cell of a tuple in a violating pair (both sides of a
/// conflict are suspects), as ViolationEngine::ViolatingCells defines.
class TrueViolationSet {
 public:
  /// The empty set over a 0 x 0 grid: contains nothing.
  TrueViolationSet() = default;

  /// Builds the set from the union of every FD's violating cells.
  static TrueViolationSet Compute(const Relation& relation, const FdSet& fds);

  /// As above, reusing a shared partition-backed engine (and its LHS
  /// cache) instead of re-grouping per FD.
  static TrueViolationSet Compute(ViolationEngine& engine, const FdSet& fds);

  /// A bit test; false for any cell outside the relation's grid.
  bool Contains(const Cell& cell) const { return cells_.Test(cell); }

  /// True iff any cell of `row` is a violation; false for an out-of-range
  /// row.
  bool TupleViolates(TupleId row) const { return cells_.AnyInRow(row); }

  size_t Size() const { return cells_.Count(); }

  /// All violating cells in row-major order.
  std::vector<Cell> ToVector() const { return cells_.ToVector(); }

  /// The dense rows x attributes bitmap behind the set.
  const CellBitmap& cells() const { return cells_; }

 private:
  CellBitmap cells_;
};

}  // namespace uguide

#endif  // UGUIDE_VIOLATIONS_TRUE_VIOLATION_SET_H_
