#ifndef UGUIDE_TESTS_REFERENCE_RELAXATION_H_
#define UGUIDE_TESTS_REFERENCE_RELAXATION_H_

/// \file
/// \brief The paper's literal §3.1 relaxation walk: down the LHS lattice of
/// each exact FD of the dirty table while the g3 error stays within the
/// threshold. The library generates candidates with one approximate TANE
/// walk instead (GenerateCandidates, DESIGN.md §5), whose frontier
/// contains this walk's output; the tests check that containment against
/// this reference. Test code only.

#include "common/result.h"
#include "discovery/partition.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

/// Options controlling candidate-FD relaxation (§3.1 of the paper).
struct RelaxationOptions {
  /// Maximum g3 error tolerated by a relaxed FD (the paper's "violated by
  /// more than a fixed threshold", default 10% of tuples).
  double max_error = 0.10;

  /// If true (default), only the maximally relaxed FDs are returned: an FD
  /// is kept when no further single-attribute LHS removal stays within
  /// max_error. If false, every intermediate relaxation is also returned.
  bool minimal_only = true;
};

/// \brief Relaxes exact FDs discovered on a dirty table into candidate AFDs.
///
/// For each FD X -> A in `exact_fds`, walks the subset lattice of X downward
/// (removing one attribute at a time) as long as the g3 error on `relation`
/// stays within `options.max_error`, and collects the frontier. By the
/// paper's §3.1 argument, every true FD of the clean table is either in the
/// exact set or reachable by such a relaxation, so the returned candidate
/// set is a superset of the detectable part of Sigma_TC (given a suitable
/// threshold).
///
/// The result is deduplicated and, when minimal_only, minimized (no
/// candidate's LHS is a strict subset of another's with the same RHS).
Result<FdSet> RelaxFds(const Relation& relation, const FdSet& exact_fds,
                       const RelaxationOptions& options = {});

/// The g3 error of `fd` (Partition::FdError) from the partitions of its LHS
/// and of LHS + RHS, memoized in `store`.
double G3Error(PartitionStore& store, const Fd& fd);

}  // namespace uguide

#endif  // UGUIDE_TESTS_REFERENCE_RELAXATION_H_
