#ifndef UGUIDE_TESTS_REFERENCE_HASH_DETECTOR_H_
#define UGUIDE_TESTS_REFERENCE_HASH_DETECTOR_H_

/// \file
/// \brief The hash-grouping violation detector: the behavioral reference
/// that ViolationEngine must match byte for byte, and the baseline its
/// benchmarks measure against. Test and benchmark code only; the library
/// detects violations through ViolationEngine alone.

#include <vector>

#include "fd/fd.h"
#include "relation/relation.h"
#include "violations/bipartite_graph.h"

namespace uguide {

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

/// \brief The violation graph of `candidates` over `relation`, with every
/// FD's cells found by the hash detector above and assembled through the
/// public ViolationGraph::FromPerFdCells merge. The behavioral reference
/// for ViolationGraph::Build and the baseline of its benchmark.
ViolationGraph BuildReferenceGraph(const Relation& relation,
                                   const FdSet& candidates);

}  // namespace uguide

#endif  // UGUIDE_TESTS_REFERENCE_HASH_DETECTOR_H_
