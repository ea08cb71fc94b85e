#ifndef UGUIDE_DISCOVERY_TANE_H_
#define UGUIDE_DISCOVERY_TANE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/memory_budget.h"
#include "common/result.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

/// Options controlling FD discovery.
struct TaneOptions {
  /// Maximum g3 error for a dependency to be reported. 0 = exact FDs only;
  /// a positive value discovers approximate FDs (AFDs).
  double max_error = 0.0;

  /// Upper bound on LHS size; candidates above this are not explored.
  /// Bounding the lattice depth keeps discovery tractable on wide schemas.
  int max_lhs_size = std::numeric_limits<int>::max();

  /// When discovering AFDs (max_error > 0): if true, a set found to be an
  /// AFD prunes its specializations just like an exact FD would, so only
  /// minimal AFDs are reported. If false, only exactly-holding FDs prune.
  bool prune_on_approximate = true;

  /// Worker threads for the level-wise traversal. 1 (the default) runs
  /// fully serially; 0 uses std::thread::hardware_concurrency(). The
  /// discovered FdSet is identical for every thread count — each lattice
  /// node's dependency check and partition product is a pure function of
  /// the frozen previous level, so parallelism changes only wall-clock
  /// time (see DESIGN.md "Parallel discovery").
  int num_threads = 1;

  /// Soft deadline on the traversal in milliseconds; 0 = none. Checked at
  /// level boundaries only (a level is never abandoned halfway), so the
  /// result is always every minimal FD with an LHS up to the last completed
  /// level — a sound under-approximation, flagged via
  /// DiscoveryOutcome::truncated. Time is read from the FaultRegistry's
  /// virtual clock, so latency fault plans can exercise truncation
  /// deterministically.
  double deadline_ms = 0.0;

  /// Memory budget charged for every stripped partition and partition
  /// product of the traversal; null = ungoverned (bit-identical output).
  /// Crossing the budget's soft limit evicts recomputable partitions (LRU,
  /// recompute-on-miss); hitting the hard limit stops lattice growth at a
  /// level boundary and flags DiscoveryOutcome::memory_truncated — the
  /// memory analogue of the deadline above. The last level builds no
  /// partition at all: its checks count in per-worker scratch, which is
  /// not charged (like Partition::Product's label array), so it never
  /// truncates. Must outlive the call.
  MemoryBudget* memory_budget = nullptr;
};

/// \brief What one discovery walk produced, plus how far it got.
struct DiscoveryOutcome {
  FdSet fds;
  /// True iff the deadline cut the traversal short; `fds` then covers only
  /// LHS sizes up to `levels_completed`.
  bool truncated = false;
  /// True iff the memory budget's hard limit cut the traversal short; same
  /// partial-lattice contract as `truncated`.
  bool memory_truncated = false;
  /// Lattice levels fully processed (level k checks LHS candidates of
  /// size k).
  int levels_completed = 0;
  /// Peak bytes charged to the memory budget during this call (0 when no
  /// budget was supplied). Cumulative high-water if the budget is shared;
  /// walks of one DiscoverFdFrontiers call share it, so they all report
  /// the same peak, and the same eviction and recompute counts below.
  size_t peak_memory_bytes = 0;
  /// Partitions evicted / rebuilt by the budget-governed store.
  size_t partitions_evicted = 0;
  size_t partitions_recomputed = 0;
  /// Dependency checks X\{A} -> A decided, counting each (X, A) once per
  /// call; shared by the walks of one call like the counts above.
  size_t checks = 0;
  /// Those checks the key-error bounds could not decide, so that they ran
  /// a g3 scan. 0 for an exact walk (max_error = 0).
  size_t g3_scans = 0;

  /// True iff the traversal was cut short for any reason.
  bool Truncated() const { return truncated || memory_truncated; }
};

/// \brief Discovers all minimal, non-trivial FDs (or AFDs) of `relation`.
///
/// Level-wise TANE (Huhtala et al. 1999): attribute-lattice traversal with
/// stripped-partition products, C+ right-hand-side candidate pruning, and
/// key pruning. This is the library's substitute for the Metanome profiler
/// used in the paper's experiments (§7.1).
///
/// FDs with an empty LHS (constant columns) are reported when applicable.
Result<FdSet> DiscoverFds(const Relation& relation,
                          const TaneOptions& options = {});

/// \brief DiscoverFds plus progress/truncation metadata.
///
/// The one-threshold call of DiscoverFdFrontiers (threshold
/// `options.max_error`); use this form when a deadline is set (or when the
/// caller wants to know how deep discovery went).
Result<DiscoveryOutcome> DiscoverFdsDetailed(const Relation& relation,
                                             const TaneOptions& options = {});

/// \brief One lattice walk serving several g3 thresholds at once.
///
/// Returns one outcome per entry of `max_errors`, in order; each equals
/// DiscoverFdsDetailed with `options.max_error` set to that entry — the
/// same FDs in the same order, the same levels — except that under a
/// binding memory budget the shared store can truncate earlier than a solo
/// walk would. `options.max_error` itself is ignored.
///
/// Each threshold keeps its own C+ level maps (so its emission order is
/// exactly its solo walk's), while everything else is shared: one
/// PartitionStore, one product per distinct lattice node, and the work of
/// each (X, A) check, done on the pool once per distinct node. A check is
/// decided from the key-error bounds of TANE's lemma (see
/// Partition::Excess) and runs a g3 scan only for a threshold between
/// them, at most once per (X, A). The last level (LHS size max_lhs_size)
/// is streamed: it only counts each node's excess, building nothing. The
/// deadline and the "discovery.level" fault site apply once per level of
/// the shared walk, so fault plans can inject latency or failure into the
/// traversal.
/// (Wan & Han's top-k AFD discovery evaluates several error bounds in one
/// walk the same way.)
Result<std::vector<DiscoveryOutcome>> DiscoverFdFrontiers(
    const Relation& relation, const TaneOptions& options,
    const std::vector<double>& max_errors);

}  // namespace uguide

#endif  // UGUIDE_DISCOVERY_TANE_H_
