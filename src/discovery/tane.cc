#include "discovery/tane.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "discovery/partition.h"

namespace uguide {

namespace {

// A lattice node carries only its RHS-candidate set; partitions live in the
// walk's PartitionStore, keyed by the node's attribute set, so walks that
// share a node share its partition.
struct Node {
  AttributeSet cplus;
  /// The node's position in its level map's iteration order, i.e. which FD
  /// shard its check writes; set at the start of each check phase.
  size_t shard = 0;
};

using Level = std::unordered_map<AttributeSet, Node, AttributeSetHash>;

// Keeps only FDs that are minimal within the emitted set (same RHS, no
// strictly smaller LHS). Needed because approximate-mode pruning cannot
// guarantee minimality in every corner case.
//
// Complexity: FDs are bucketed by RHS, so the pairwise subset scan is
// O(sum_r n_r^2) where n_r is the count emitted for RHS r — worst case
// O(n^2) in the total emitted count, but the per-RHS buckets are small in
// practice (C+ pruning already suppresses almost all non-minimal
// emissions; this pass is noise in bench_discovery even on the widest
// 15-attribute relation). Each subset test is one mask comparison.
// Output preserves the emission order, which downstream question-selection
// heuristics observe through FdSet iteration.
FdSet FilterMinimal(const std::vector<Fd>& fds) {
  std::unordered_map<int, std::vector<const Fd*>> by_rhs;
  for (const Fd& fd : fds) by_rhs[fd.rhs].push_back(&fd);
  FdSet out;
  for (const Fd& fd : fds) {
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

// C+(X) = intersection of C+(X \ {A}) over A in X, read from one walk's
// frozen previous level.
AttributeSet CplusOf(const AttributeSet& x, const Level& prev,
                     const AttributeSet& all_attrs) {
  AttributeSet cplus = all_attrs;
  for (int a : x) {
    auto it = prev.find(x.Without(a));
    if (it == prev.end()) {
      // Subset was pruned (empty C+), so nothing can be a candidate here.
      // The node itself is erased at this level's prune step; the regression
      // test TaneTest.PrunedParentEmitsNothing pins that it emits no FDs in
      // the meantime (candidates below intersect to the empty set).
      return AttributeSet();
    }
    cplus = cplus.Intersect(it->second.cplus);
  }
  return cplus;
}

// How one walk's g3 threshold judges X\{a} -> a.
struct Verdict {
  bool exact = false;  // g3 == 0
  bool valid = false;  // g3 <= the walk's threshold
};

// One walk's dependency check of node X, whose C+ was just set from the
// walk's frozen previous level: emit the FDs X\{a} -> a within the walk's
// g3 threshold and prune the node's C+ accordingly. `verdict(a, max_error)`
// judges X\{a} -> a, a pure function of the partitions, so walks that share
// the node share its work too. Writes only `node` and `found`.
template <typename VerdictFn>
void CheckNode(const AttributeSet& x, Node& node, const Level& prev,
               double max_error, bool prune_on_approximate,
               const VerdictFn& verdict, std::vector<Fd>& found) {
  const AttributeSet candidates = x.Intersect(node.cplus);
  for (int a : candidates) {
    if (prev.find(x.Without(a)) == prev.end()) continue;
    const auto [exact, valid] = verdict(a, max_error);
    if (valid) {
      found.emplace_back(x.Without(a), a);
    }
    if (exact) {
      node.cplus.Remove(a);
      // Remove R \ X: no attribute outside X can be a minimal RHS for
      // any superset of X once X\{a} -> a holds exactly. (This step is
      // only sound for exact FDs -- the implication arguments behind it
      // break under g3 slack.)
      node.cplus = node.cplus.Intersect(x);
    } else if (valid && prune_on_approximate) {
      // An approximate FD prunes only its own RHS: supersets of the
      // LHS cannot yield a *minimal* AFD for `a` anymore, but other
      // RHS candidates stay live.
      node.cplus.Remove(a);
    }
  }
}

// One TANE walk under one g3 threshold. The shared lattice walk drives
// every walk in lock step, but each keeps its own level maps and sees
// exactly the inserts and erases its solo walk would make, so map
// iteration order -- and with it the FD emission order -- does not depend
// on its siblings.
struct Walk {
  double max_error = 0.0;
  Level prev;
  Level current;
  std::vector<Fd> emitted;
  DiscoveryOutcome outcome;
};

// The two stored partitions node Z's product is built from: Z minus its
// highest attribute (the prefix that generated Z) and Z minus its second
// highest (a co-generator). Every walk uses these same two operands, and
// partitions are canonical in content, so which walk generated Z does not
// matter.
std::pair<AttributeSet, AttributeSet> Operands(const AttributeSet& z) {
  const AttributeSet left = z.Without(z.Highest());
  return {left, z.Without(left.Highest())};
}

// True iff every |Z|-1 subset of Z is a node of `level` (downward
// closure): exactly when a walk whose level this is generates Z.
bool Closed(const AttributeSet& z, const Level& level) {
  for (int b : z) {
    if (level.count(z.Without(b)) == 0) return false;
  }
  return true;
}

// Count scratch for the check jobs of one walk, one per pool strand: a job
// borrows one and gives it back. Each is sized for the relation up front,
// before the walk allocates its levels, so no job grows one in the middle
// of them. Like Product()'s label array, scratch is not counted against
// the memory cap.
class ScratchShelf {
 public:
  ScratchShelf(const Relation& relation, int strands)
      : rows_(static_cast<size_t>(relation.NumRows())),
        codes_(relation.pool().Size()) {
    for (int i = 0; i < strands; ++i) free_.push_back(Make());
  }
  std::unique_ptr<CountScratch> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return Make();
    std::unique_ptr<CountScratch> scratch = std::move(free_.back());
    free_.pop_back();
    return scratch;
  }
  void Give(std::unique_ptr<CountScratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

 private:
  // Labels per tuple; counts per class (at most rows / 2) or value code.
  std::unique_ptr<CountScratch> Make() const {
    auto scratch = std::make_unique<CountScratch>();
    scratch->label.assign(rows_, -1);
    scratch->count.assign(std::max(rows_, codes_), 0);
    return scratch;
  }

  const size_t rows_;
  const size_t codes_;
  std::mutex mu_;
  std::vector<std::unique_ptr<CountScratch>> free_;
};

// The g3 error of a numerator, divided exactly as Partition::FdError
// divides it, so every comparison below is bit-for-bit the old one.
double G3(size_t removed, TupleId num_rows) {
  return static_cast<double>(removed) / static_cast<double>(num_rows);
}

// Checks node X for every walk holding it. Each X\{a} -> a is decided by
// the cheapest exact test (TANE's lemma, see Partition::Excess):
//   exact   iff excess(X\{a}) == excess(X);
//   refused if  (excess(X\{a}) - excess(X)) / n > threshold;
//   valid   if  excess(X\{a}) / n <= threshold;
// and only a threshold strictly between the bounds pays a g3 scan, at most
// one per (X, a), shared across the walks. Walks read their frozen `prev`
// and write only their own node and FD shard (`found[w][node.shard]`), so
// jobs of one level run concurrently; the level maps are only searched, and
// the store is internally synchronized. On a streamed level the node's
// partition was never stored: only its excess is needed, counted from the
// same two operands the materializing walk would multiply. Adds the pairs
// decided and the scans run to `checks` and `scans`.
void CheckJob(const AttributeSet& x, const std::vector<Walk*>& walks,
              std::vector<std::vector<std::vector<Fd>>>& found, bool streamed,
              const Relation& relation, PartitionStore& store,
              ScratchShelf& shelf, const AttributeSet& all_attrs,
              bool prune_on_approximate, std::atomic<size_t>& checks,
              std::atomic<size_t>& scans) {
  bool any_candidate = false;
  for (Walk* walk : walks) {
    auto it = walk->current.find(x);
    if (it == walk->current.end()) continue;
    it->second.cplus = CplusOf(x, walk->prev, all_attrs);
    any_candidate |= !x.Intersect(it->second.cplus).Empty();
  }
  if (!any_candidate) return;

  std::unique_ptr<CountScratch> scratch;
  const auto borrow = [&]() -> CountScratch& {
    if (scratch == nullptr) scratch = shelf.Take();
    return *scratch;
  };
  size_t excess = 0;
  if (streamed) {
    const auto [left, right] = Operands(x);
    excess = store.Get(left)->ProductExcess(*store.Get(right), borrow());
  } else {
    excess = store.Get(x)->Excess();
  }
  // Per RHS a: excess(X\{a}) and, once scanned, the g3 numerator.
  constexpr size_t kUnscanned = static_cast<size_t>(-1);
  std::array<size_t, AttributeSet::kMaxAttributes> upper;
  std::array<size_t, AttributeSet::kMaxAttributes> removed;
  uint64_t known = 0;
  size_t job_checks = 0;
  size_t job_scans = 0;
  const TupleId n = relation.NumRows();
  const auto verdict = [&](int a, double max_error) {
    const size_t i = static_cast<size_t>(a);
    const uint64_t bit = uint64_t{1} << a;
    if ((known & bit) == 0) {
      upper[i] = store.Get(x.Without(a))->Excess();
      UGUIDE_DCHECK(upper[i] >= excess);
      removed[i] = kUnscanned;
      known |= bit;
      ++job_checks;
    }
    const size_t lower = upper[i] - excess;
    if (lower == 0) return Verdict{true, true};
    if (G3(lower, n) > max_error) return Verdict{false, false};
    if (G3(upper[i], n) <= max_error) return Verdict{false, true};
    if (removed[i] == kUnscanned) {
      removed[i] = store.Get(x.Without(a))->Removals(relation, a, borrow());
      ++job_scans;
    }
    return Verdict{false, G3(removed[i], n) <= max_error};
  };
  for (size_t w = 0; w < walks.size(); ++w) {
    auto it = walks[w]->current.find(x);
    if (it == walks[w]->current.end()) continue;
    CheckNode(x, it->second, walks[w]->prev, walks[w]->max_error,
              prune_on_approximate, verdict, found[w][it->second.shard]);
  }
  if (scratch != nullptr) shelf.Give(std::move(scratch));
  checks.fetch_add(job_checks, std::memory_order_relaxed);
  scans.fetch_add(job_scans, std::memory_order_relaxed);
}

}  // namespace

Result<FdSet> DiscoverFds(const Relation& relation,
                          const TaneOptions& options) {
  UGUIDE_ASSIGN_OR_RETURN(DiscoveryOutcome outcome,
                          DiscoverFdsDetailed(relation, options));
  return std::move(outcome.fds);
}

Result<DiscoveryOutcome> DiscoverFdsDetailed(const Relation& relation,
                                             const TaneOptions& options) {
  UGUIDE_ASSIGN_OR_RETURN(
      std::vector<DiscoveryOutcome> outcomes,
      DiscoverFdFrontiers(relation, options, {options.max_error}));
  return std::move(outcomes.front());
}

Result<std::vector<DiscoveryOutcome>> DiscoverFdFrontiers(
    const Relation& relation, const TaneOptions& options,
    const std::vector<double>& max_errors) {
  for (double max_error : max_errors) {
    if (!(max_error >= 0.0 && max_error < 1.0)) {
      return Status::InvalidArgument("max_error must be in [0, 1)");
    }
  }
  if (options.max_lhs_size < 0) {
    return Status::InvalidArgument("max_lhs_size must be non-negative");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be non-negative");
  }
  if (options.deadline_ms < 0.0) {
    return Status::InvalidArgument("deadline_ms must be non-negative");
  }
  const int m = relation.NumAttributes();
  const AttributeSet all_attrs = AttributeSet::Full(m);

  std::vector<Walk> walks(max_errors.size());
  for (size_t w = 0; w < walks.size(); ++w) {
    walks[w].max_error = max_errors[w];
  }
  PartitionStore store(&relation);
  // The bytes of the partitions the store holds, summed on admission and
  // erasure (both serial), against options.memory_limit_bytes.
  size_t resident_bytes = 0;
  size_t peak_bytes = 0;
  const auto admit = [&](const AttributeSet& attrs, Partition partition) {
    const size_t bytes = partition.ApproxBytes();
    if (options.memory_limit_bytes != 0 &&
        resident_bytes + bytes > options.memory_limit_bytes) {
      return false;
    }
    store.Put(attrs, std::move(partition));
    resident_bytes += bytes;
    peak_bytes = std::max(peak_bytes, resident_bytes);
    return true;
  };
  const auto erase = [&](const AttributeSet& attrs) {
    resident_bytes -= store.Erase(attrs);
  };
  std::atomic<size_t> checks{0};
  std::atomic<size_t> scans{0};
  const auto finish = [&] {
    std::vector<DiscoveryOutcome> outcomes;
    outcomes.reserve(walks.size());
    for (Walk& walk : walks) {
      DiscoveryOutcome& done = walk.outcome;
      done.fds = FilterMinimal(walk.emitted);
      done.peak_memory_bytes = peak_bytes;
      done.checks = checks.load(std::memory_order_relaxed);
      done.g3_scans = scans.load(std::memory_order_relaxed);
      outcomes.push_back(std::move(done));
    }
    return outcomes;
  };
  if (walks.empty() || m == 0 || relation.NumRows() == 0) return finish();

  FaultRegistry& registry = FaultRegistry::Global();
  const auto start = registry.Now();
  auto past_deadline = [&] {
    if (options.deadline_ms <= 0.0) return false;
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(registry.Now() - start)
            .count();
    return elapsed_ms > options.deadline_ms;
  };

  // Shared worker pool for the whole traversal; with num_threads <= 1 this
  // spawns nothing and every ParallelFor below runs inline, serially.
  ThreadPool pool(options.num_threads);
  ScratchShelf shelf(relation, pool.num_threads());

  // Levels 0 and 1 stay for the whole walk, and count against the cap: a
  // cap too small for even the column partitions truncates discovery at
  // level 0, the graceful floor of the degradation contract.
  const auto truncate_all = [&] {
    for (Walk& walk : walks) walk.outcome.memory_truncated = true;
    return finish();
  };
  if (!admit(AttributeSet(), Partition::ForEmptySet(relation.NumRows()))) {
    return truncate_all();
  }
  for (int a = 0; a < m; ++a) {
    if (!admit(AttributeSet::Single(a), Partition::ForColumn(relation, a))) {
      return truncate_all();
    }
  }
  for (Walk& walk : walks) {
    walk.prev.emplace(AttributeSet(), Node{all_attrs});
    for (int a = 0; a < m; ++a) {
      walk.current.emplace(AttributeSet::Single(a), Node{all_attrs});
    }
  }

  for (int level_size = 1; level_size <= m; ++level_size) {
    // A walk whose level came out empty has finished; the others go on.
    std::vector<Walk*> active;
    for (Walk& walk : walks) {
      if (!walk.current.empty()) active.push_back(&walk);
    }
    if (active.empty()) break;

    // Graceful degradation: the deadline (and the fault site) is honored
    // only at level boundaries, once per level of the shared walk, so
    // whatever is returned is every minimal FD up to the last completed
    // level -- never a half-checked level.
    UGUIDE_FAULT_POINT("discovery.level");
    if (past_deadline()) {
      for (Walk* walk : active) walk->outcome.truncated = true;
      break;
    }

    // --- Compute dependencies -------------------------------------------
    // Freeze-prev / shard-current: every walk's `prev` is read-only from
    // here on, and each distinct node of the level is one job on the pool.
    // A job checks the node for every walk holding it and writes only
    // those walks' node C+ and FD shards. Each walk's shards follow its
    // own level map's iteration order -- fixed once the level is built,
    // and built identically for every thread count and every sibling
    // walk -- and are merged in that order below, so each emitted FD
    // sequence is bit-identical to the serial solo traversal (which
    // downstream question-selection heuristics are sensitive to).
    // The last level (LHS size max_lhs_size) is streamed: its products
    // were never built, each job counts its node's excess instead.
    const bool streamed = level_size > 1 && level_size > options.max_lhs_size;
    std::vector<AttributeSet> jobs;  // distinct nodes, first walk first
    std::vector<std::vector<std::vector<Fd>>> found(active.size());
    for (size_t w = 0; w < active.size(); ++w) {
      found[w].resize(active[w]->current.size());
      size_t shard = 0;
      for (auto& [x, node] : active[w]->current) {
        node.shard = shard++;
        const bool held_earlier =
            std::any_of(active.begin(), active.begin() + w,
                        [&x = x](const Walk* earlier) {
                          return earlier->current.count(x) != 0;
                        });
        if (!held_earlier) jobs.push_back(x);
      }
    }
    pool.ParallelFor(jobs.size(), [&](size_t j) {
      CheckJob(jobs[j], active, found, streamed, relation, store, shelf,
               all_attrs, options.prune_on_approximate, checks, scans);
    });
    for (size_t w = 0; w < active.size(); ++w) {
      for (const std::vector<Fd>& shard : found[w]) {
        active[w]->emitted.insert(active[w]->emitted.end(), shard.begin(),
                                  shard.end());
      }
      active[w]->outcome.levels_completed = level_size;
    }

    // The previous level's partitions were last touched by the checks
    // above, whichever walk held them; drop them now. The empty set and the
    // singletons stay. A finished walk's leftover level is released here
    // once and forgotten.
    for (Walk& walk : walks) {
      for (const auto& [x, node] : walk.prev) {
        if (x.Size() > 1) erase(x);
      }
      if (walk.current.empty()) walk.prev.clear();
    }

    // --- Prune -----------------------------------------------------------
    // Only C+-emptiness prunes nodes. TANE's classical key pruning
    // (deleting superkey nodes after a special output step) is NOT applied:
    // deleting a key node X also suppresses generation of supersets
    // Z = X + {...} that are needed to test minimal candidates
    // Z\{B} -> B with B inside the key, silently dropping minimal FDs on
    // key-heavy (e.g., small-sample) relations. C+ pruning alone keeps the
    // traversal sound and complete; superkey partitions are empty, so the
    // retained nodes cost little.
    std::vector<AttributeSet> pruned;
    for (Walk* walk : active) {
      std::vector<AttributeSet> to_delete;
      for (auto& [x, node] : walk->current) {
        if (node.cplus.Empty()) to_delete.push_back(x);
      }
      for (const AttributeSet& x : to_delete) {
        walk->current.erase(x);
        if (x.Size() > 1) pruned.push_back(x);
      }
    }
    // A node pruned from every walk can never co-generate a candidate
    // (downward closure consults `current`), so its partition is dead too.
    for (const AttributeSet& x : pruned) {
      const bool held = std::any_of(
          active.begin(), active.end(),
          [&x](const Walk* walk) { return walk->current.count(x) != 0; });
      if (!held) erase(x);
    }

    if (level_size > options.max_lhs_size) break;

    // --- Generate the next level ----------------------------------------
    // Candidate enumeration is cheap and stays serial. Each walk generates
    // each Z exactly once -- from its prefix X = Z \ {Z.Highest()} -- in
    // its own level-map order, and inserts its candidates into its next
    // map in that order, reproducing the solo walk's insertion sequence.
    // The partition products (the expensive part) are deduplicated by Z
    // across walks and run in parallel: Product() is a pure const function
    // of two frozen partitions, so products are independent.
    // A Z an earlier walk also generated is already in `cands`.
    std::vector<AttributeSet> cands;
    std::vector<std::vector<AttributeSet>> walk_next(active.size());
    for (size_t w = 0; w < active.size(); ++w) {
      for (const auto& [x, node] : active[w]->current) {
        for (int a = x.Highest() + 1; a < m; ++a) {
          const AttributeSet z = x.With(a);
          // Downward closure: every |Z|-1 subset must have survived.
          if (!Closed(z, active[w]->current)) continue;
          walk_next[w].push_back(z);
          const bool generated_earlier =
              std::any_of(active.begin(), active.begin() + w,
                          [&z](const Walk* earlier) {
                            return Closed(z, earlier->current);
                          });
          if (!generated_earlier) cands.push_back(z);
        }
      }
    }

    // The last level is streamed, not stored: its nodes are checked once
    // and never extended, and a check needs only the node's excess, which
    // its job counts without building the product (see CheckJob). Earlier
    // levels are materialized, then admitted serially in `cands` order, so
    // where the memory cap stops the walk does not depend on the thread
    // count.
    if (level_size + 1 <= options.max_lhs_size) {
      std::vector<std::optional<Partition>> products(cands.size());
      pool.ParallelFor(cands.size(), [&](size_t i) {
        const auto [left, right] = Operands(cands[i]);
        products[i] = store.Get(left)->Product(*store.Get(right));
      });
      size_t admitted = 0;
      while (admitted < cands.size() &&
             admit(cands[admitted], std::move(*products[admitted]))) {
        ++admitted;
      }
      if (admitted < cands.size()) {
        // Abandon the half-built level so every result is exactly the
        // lattice through `levels_completed` — the same contract as the
        // deadline, discovered and consumed identically downstream.
        for (size_t i = 0; i < admitted; ++i) erase(cands[i]);
        for (size_t w = 0; w < active.size(); ++w) {
          if (!walk_next[w].empty()) {
            active[w]->outcome.memory_truncated = true;
          }
        }
        break;
      }
    }
    for (size_t w = 0; w < active.size(); ++w) {
      Level next;
      for (const AttributeSet& z : walk_next[w]) next.emplace(z, Node{});
      active[w]->prev = std::move(active[w]->current);
      active[w]->current = std::move(next);
    }
  }

  return finish();
}

}  // namespace uguide
