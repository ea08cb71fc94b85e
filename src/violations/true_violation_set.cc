#include "violations/true_violation_set.h"

#include "violations/violation_engine.h"

namespace uguide {

TrueViolationSet TrueViolationSet::Compute(const Relation& relation,
                                           const FdSet& fds) {
  ViolationEngine engine(&relation);
  return Compute(engine, fds);
}

TrueViolationSet TrueViolationSet::Compute(ViolationEngine& engine,
                                           const FdSet& fds) {
  const Relation& relation = engine.relation();
  TrueViolationSet set;
  set.cells_ = CellBitmap(relation.NumRows(), relation.NumAttributes());
  for (const Fd& fd : fds) engine.MarkViolatingCells(fd, &set.cells_);
  return set;
}

}  // namespace uguide
