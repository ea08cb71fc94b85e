#include "core/candidate_gen.h"

#include <utility>
#include <vector>

namespace uguide {

Result<CandidateSet> GenerateCandidates(const Relation& dirty,
                                        const CandidateGenOptions& options) {
  TaneOptions tane;
  tane.max_lhs_size = options.max_lhs_size;
  tane.num_threads = options.num_threads;
  tane.deadline_ms = options.discovery_deadline_ms;
  tane.memory_budget = options.memory_budget;
  // One walk, two frontiers: the exact FDs (g3 = 0) and the candidate AFDs,
  // all minimal FDs with g3 error within the relaxation threshold. The
  // latter is the complete frontier the paper's §3.1 relaxation walk aims
  // for; walking down from Sigma_T alone can miss true FDs whose exact
  // specializations are shadowed by key-based minimal FDs (e.g.
  // id -> city hides {zip,id} -> city, so zip -> city is never reached).
  // Approximate discovery returns every minimal element of the g3-passing
  // region and therefore provably covers the relaxation output.
  UGUIDE_ASSIGN_OR_RETURN(
      std::vector<DiscoveryOutcome> frontiers,
      DiscoverFdFrontiers(dirty, tane, {0.0, options.relax_threshold}));
  DiscoveryOutcome& exact = frontiers[0];
  DiscoveryOutcome& candidates = frontiers[1];
  return CandidateSet{std::move(exact.fds), std::move(candidates.fds),
                      exact.truncated || candidates.truncated,
                      exact.memory_truncated || candidates.memory_truncated,
                      candidates.peak_memory_bytes};
}

}  // namespace uguide
