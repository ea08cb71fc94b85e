#ifndef UGUIDE_FD_CLOSURE_H_
#define UGUIDE_FD_CLOSURE_H_

#include <cstdint>
#include <vector>

#include "common/attribute_set.h"
#include "fd/fd.h"

namespace uguide {

/// \brief Attribute-closure machinery over a fixed FD set (Armstrong
/// axioms, §2.1).
///
/// Wraps an FdSet and answers closure and implication queries.
/// The FD set is copied at construction; the engine is immutable afterwards.
class ClosureEngine {
 public:
  explicit ClosureEngine(FdSet fds) : fds_(std::move(fds)) {}

  const FdSet& fds() const { return fds_; }

  /// The closure X+ : all attributes determined by X under the FD set.
  AttributeSet Closure(const AttributeSet& x) const;

  /// True iff the FD set logically implies `fd` (fd.rhs in Closure(fd.lhs)).
  bool Implies(const Fd& fd) const;

 private:
  FdSet fds_;
};

/// \brief Enumerates all saturated (closed) attribute sets: X with X+ = X.
///
/// Uses Ganter's NextClosure algorithm, so the cost is
/// O(#closed-sets * m * |FDs|) rather than 2^m. The full attribute set is
/// always closed and is included. Results come back in lectic order.
///
/// `num_attributes` bounds the universe (attributes 0..m-1). At most
/// `max_sets` sets are returned (the closed-set family can be exponential);
/// enumeration simply stops at the cap.
std::vector<AttributeSet> SaturatedSets(const FdSet& fds, int num_attributes,
                                        size_t max_sets = SIZE_MAX);

}  // namespace uguide

#endif  // UGUIDE_FD_CLOSURE_H_
