#ifndef UGUIDE_TESTS_REFERENCE_FD_THEORY_H_
#define UGUIDE_TESTS_REFERENCE_FD_THEORY_H_

/// \file
/// \brief FD-theory oracles for tests and benchmarks: Armstrong relations,
/// a direct FD check on a relation, and the minimal-cover machinery over a
/// ClosureEngine. Not on any served or experimental path; the library
/// itself needs only ClosureEngine::Implies and SaturatedSets.

#include "fd/closure.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

/// \brief Builds an Armstrong relation for `fds` over `schema` (§6).
///
/// The returned relation satisfies exactly the FDs implied by `fds` via the
/// Armstrong axioms and no others. Construction follows the classical
/// closed-set recipe (cf. Bisbal & Grimson): one base tuple, plus one tuple
/// per saturated set W (except the full set) that agrees with the base tuple
/// exactly on W. Pairwise agree-sets are then precisely the closed sets, so
/// X -> A holds iff A is in the closure of X.
///
/// The number of tuples is 1 + #saturated-sets, which can be exponential in
/// the number of attributes for adversarial FD sets; the paper's schemas
/// stay small.
Relation BuildArmstrongRelation(const Schema& schema, const FdSet& fds);

/// \brief True iff `fd` is satisfied by every tuple pair of `relation`.
///
/// Hash-based, O(n) per call; suitable for the small relations handled by
/// Armstrong machinery. Bulk discovery uses partitions (src/discovery).
bool FdHoldsOn(const Relation& relation, const Fd& fd);

/// \brief Checks whether `relation` is an Armstrong relation for `fds`:
/// every implied FD holds and every non-implied normalized FD is violated.
/// Exponential in the attribute count; intended for tests and small schemas.
bool IsArmstrongRelation(const Relation& relation, const FdSet& fds);

/// True iff `fd` holds with a semantically minimal LHS under `engine`'s FD
/// set: it is implied, and removing any LHS attribute breaks implication.
bool IsMinimal(const ClosureEngine& engine, const Fd& fd);

/// Reduces `fd`'s LHS to a minimal determining subset (left-reduction).
/// `fd` must be implied by `engine`'s FD set.
Fd Minimize(const ClosureEngine& engine, const Fd& fd);

/// A minimal cover of `engine`'s FD set: left-reduced, non-redundant FDs
/// equivalent to the original set.
FdSet MinimalCover(const ClosureEngine& engine);

/// True iff the two engines' FD sets imply each other.
bool EquivalentTo(const ClosureEngine& a, const ClosureEngine& b);

}  // namespace uguide

#endif  // UGUIDE_TESTS_REFERENCE_FD_THEORY_H_
