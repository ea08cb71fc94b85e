#ifndef UGUIDE_VIOLATIONS_VIOLATION_DETECTOR_H_
#define UGUIDE_VIOLATIONS_VIOLATION_DETECTOR_H_

#include <vector>

#include "fd/fd.h"
#include "relation/cell_bitmap.h"
#include "relation/relation.h"

namespace uguide {

class ViolationEngine;

/// \brief Computes the cells an (approximate) FD flags as violations.
///
/// For the FD X -> A, tuples are grouped by their X-projection; in every
/// group holding at least two distinct A-values, each member's A-cell
/// participates in a violating tuple pair and is flagged (both sides of a
/// conflict are suspects -- the convention of FD-based error detection and
/// of the paper's workflow simulation, where a cell is erroneous iff "it
/// violates some FD in Sigma_TC").
std::vector<Cell> ViolatingCells(const Relation& relation, const Fd& fd);

/// Rows of ViolatingCells (same order, without the attribute component).
std::vector<TupleId> ViolatingTuples(const Relation& relation, const Fd& fd);

/// \brief The minimum set of tuples to delete so the FD holds exactly
/// (the g3 removal set, §2.1): within each group the most frequent A-value
/// is kept and minority tuples are returned. |result| / |T| equals the g3
/// error. Ties break toward the value seen first in the relation.
std::vector<TupleId> G3RemovalTuples(const Relation& relation, const Fd& fd);

/// The A-cells of G3RemovalTuples.
std::vector<Cell> G3RemovalCells(const Relation& relation, const Fd& fd);

/// True iff the FD has at least one violating tuple pair. Cheaper than
/// materializing the violation set.
bool HasViolations(const Relation& relation, const Fd& fd);

/// For every tuple, the number of FDs in `fds` whose g3 removal set
/// contains it. Drives Tuple-Sampling-Violation-Weighting (Alg. 7, which
/// weights by membership in "the minimal number of tuples to be deleted").
std::vector<int> ViolationCountPerTuple(const Relation& relation,
                                        const FdSet& fds);

/// \brief The set E of cells violating at least one FD of `fds` on
/// `relation`.
///
/// With `fds` = Sigma_TC this is the paper's E_T -- the FD-detectable
/// errors; the simulated expert answers cell/tuple questions from it and
/// detection metrics measure against it (§7.1).
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

#endif  // UGUIDE_VIOLATIONS_VIOLATION_DETECTOR_H_
