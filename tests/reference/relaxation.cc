#include "reference/relaxation.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace uguide {

Result<FdSet> RelaxFds(const Relation& relation, const FdSet& exact_fds,
                       const RelaxationOptions& options) {
  if (options.max_error < 0.0 || options.max_error >= 1.0) {
    return Status::InvalidArgument("max_error must be in [0, 1)");
  }
  PartitionStore store(&relation);

  // Memoized threshold test; shared across all exact FDs so overlapping
  // subset walks are paid for once.
  std::unordered_map<Fd, bool, FdHash> verdict;
  auto passes = [&](const Fd& fd) {
    auto it = verdict.find(fd);
    if (it != verdict.end()) return it->second;
    bool ok = G3Error(store, fd) <= options.max_error;
    verdict.emplace(fd, ok);
    return ok;
  };

  std::vector<Fd> collected;
  std::unordered_set<Fd, FdHash> emitted;

  for (const Fd& fd : exact_fds) {
    // BFS down the subset lattice of fd.lhs over *passing* sets only.
    // g3 error can only grow as LHS attributes are removed, so the passing
    // region is upward-closed within the sublattice; its minimal elements
    // are the maximally relaxed candidates the paper's §3.1 asks for.
    std::vector<Fd> frontier = {fd};
    std::unordered_set<Fd, FdHash> enqueued = {fd};
    UGUIDE_DCHECK(passes(fd)) << "exact FD fails its own threshold";
    while (!frontier.empty()) {
      std::vector<Fd> next;
      for (const Fd& current : frontier) {
        bool relaxed_further = false;
        for (int a : current.lhs) {
          Fd child(current.lhs.Without(a), current.rhs);
          if (passes(child)) {
            relaxed_further = true;
            if (enqueued.insert(child).second) next.push_back(child);
          }
        }
        const bool keep = options.minimal_only ? !relaxed_further : true;
        if (keep && emitted.insert(current).second) {
          collected.push_back(current);
        }
      }
      frontier = std::move(next);
    }
  }

  if (!options.minimal_only) return FdSet(collected);

  // Cross-FD minimization: different exact FDs can relax into comparable
  // candidates; keep only the minimal ones. Bucketing by RHS (the same
  // scheme as TANE's FilterMinimal) reduces the pairwise subset scan from
  // all-pairs over the collected set to within-bucket pairs; candidates
  // with different RHS can never shadow each other. Output preserves the
  // collection order, which question-selection heuristics observe through
  // FdSet iteration.
  std::unordered_map<int, std::vector<const Fd*>> by_rhs;
  for (const Fd& fd : collected) by_rhs[fd.rhs].push_back(&fd);
  FdSet out;
  for (const Fd& fd : collected) {
    bool minimal = true;
    for (const Fd* other : by_rhs[fd.rhs]) {
      if (other->lhs.IsStrictSubsetOf(fd.lhs)) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.Add(fd);
  }
  return out;
}

double G3Error(PartitionStore& store, const Fd& fd) {
  UGUIDE_CHECK(fd.IsValidShape());
  return store.Get(fd.lhs)->FdError(*store.Get(fd.lhs.With(fd.rhs)));
}

}  // namespace uguide
