#ifndef UGUIDE_CORE_CANDIDATE_GEN_H_
#define UGUIDE_CORE_CANDIDATE_GEN_H_

#include "common/result.h"
#include "discovery/tane.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

/// Options for the candidate-FD generation pipeline (§3.1).
struct CandidateGenOptions {
  /// g3 threshold used when relaxing exact FDs (the paper's "say 10% of the
  /// tuples").
  double relax_threshold = 0.10;

  /// Bound on LHS size during exact discovery; keeps the lattice walk
  /// tractable on wide schemas without affecting the paper's datasets.
  int max_lhs_size = 6;

  /// Worker threads for the discovery walk (see TaneOptions); the
  /// candidate set is identical for every thread count.
  int num_threads = 1;

  /// Soft deadline of the discovery walk (see TaneOptions::deadline_ms),
  /// checked once per lattice level of the one walk that serves both
  /// frontiers; 0 = none. A walk cut short yields a sound but incomplete
  /// candidate set, flagged via CandidateSet::truncated.
  double discovery_deadline_ms = 0.0;

  /// Memory budget of the discovery walk (see TaneOptions::memory_budget);
  /// null = ungoverned. Both frontiers come from one partition store
  /// charged to this budget, so the reported peak covers the whole
  /// pipeline. A walk stopped by the hard limit yields a sound but
  /// incomplete candidate set, flagged via CandidateSet::memory_truncated.
  MemoryBudget* memory_budget = nullptr;
};

/// Output of candidate generation: the exact FDs of the dirty table and
/// their relaxations (the candidate set Sigma_cand the strategies question).
struct CandidateSet {
  FdSet exact;       ///< Sigma_T: minimal exact FDs of the dirty table.
  FdSet candidates;  ///< Sigma_cand: maximally relaxed AFDs.
  /// True iff the discovery walk hit the deadline; the sets above then
  /// under-approximate the full candidate frontier.
  bool truncated = false;
  /// True iff the discovery walk hit its memory budget's hard limit; same
  /// under-approximation contract as `truncated`.
  bool memory_truncated = false;
  /// Peak bytes charged by the walk (0 when ungoverned).
  size_t peak_memory_bytes = 0;
};

/// \brief Runs the paper's §3.1 pipeline on a dirty table: exact discovery,
/// then LHS relaxation under the g3 threshold.
///
/// Both frontiers come from one DiscoverFdFrontiers walk with thresholds
/// {0, relax_threshold}; each equals its solo DiscoverFdsDetailed result.
///
/// By the §3.1 argument, every FD of the (unknown) clean table either holds
/// on the dirty table or is a relaxation of an FD that does, so - with a
/// threshold at or above the true violation rate - Sigma_cand contains all
/// true FDs alongside false positives the strategies must weed out.
Result<CandidateSet> GenerateCandidates(const Relation& dirty,
                                        const CandidateGenOptions& options =
                                            {});

}  // namespace uguide

#endif  // UGUIDE_CORE_CANDIDATE_GEN_H_
