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
  TrueViolationSet set;
  set.cells_ = engine.ViolatingCellUnion(fds);
  return set;
}

}  // namespace uguide
