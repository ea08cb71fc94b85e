#include "fd/closure.h"

namespace uguide {

AttributeSet ClosureEngine::Closure(const AttributeSet& x) const {
  AttributeSet closure = x;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Fd& fd : fds_) {
      if (!closure.Contains(fd.rhs) && fd.lhs.IsSubsetOf(closure)) {
        closure.Add(fd.rhs);
        changed = true;
      }
    }
  }
  return closure;
}

bool ClosureEngine::Implies(const Fd& fd) const {
  return Closure(fd.lhs).Contains(fd.rhs);
}

std::vector<AttributeSet> SaturatedSets(const FdSet& fds,
                                        int num_attributes,
                                        size_t max_sets) {
  UGUIDE_CHECK(num_attributes >= 0 &&
               num_attributes <= AttributeSet::kMaxAttributes);
  ClosureEngine engine(fds);
  std::vector<AttributeSet> closed;
  if (num_attributes == 0) {
    closed.push_back(AttributeSet());
    return closed;
  }
  const AttributeSet full = AttributeSet::Full(num_attributes);

  // Ganter's NextClosure in lectic order. The first closed set is
  // closure(empty); iteration stops once the full set is produced.
  AttributeSet current = engine.Closure(AttributeSet());
  closed.push_back(current);
  while (current != full && closed.size() < max_sets) {
    bool advanced = false;
    for (int i = num_attributes - 1; i >= 0; --i) {
      if (current.Contains(i)) continue;
      // candidate = closure((current restricted below i) + {i})
      const AttributeSet below_i(
          i == 0 ? uint64_t{0} : (uint64_t{1} << i) - 1);
      AttributeSet candidate =
          engine.Closure(current.Intersect(below_i).With(i));
      // Lectic successor test: candidate must add no attribute below i.
      if (candidate.Minus(current).Intersect(below_i).Empty()) {
        current = candidate;
        closed.push_back(current);
        advanced = true;
        break;
      }
    }
    UGUIDE_CHECK(advanced) << "NextClosure failed to advance";
  }
  return closed;
}

}  // namespace uguide
