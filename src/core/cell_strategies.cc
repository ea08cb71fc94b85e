#include "core/cell_strategies.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "fd/closure.h"
#include "violations/bipartite_graph.h"
#include "violations/cell_classes.h"
#include "violations/violation_artifact.h"

namespace uguide {

namespace {

// Shared working state for one cell-strategy run. The graph, its cell
// classes and the engine come from the dataset's shared artifact (or a
// private build when the context carries none — bit-identical, the build
// being deterministic at any thread count). The run's own mutable state is
// a GraphView over the frozen graph — answers deactivate nodes there — plus
// the confidences below.
struct CellRun {
  CellRun(const QuestionContext& ctx, const CellStrategyOptions& options)
      : artifact(ctx.artifact, ctx.dirty, *ctx.candidates, ctx.pool),
        graph(artifact->graph()),
        fd_conf(static_cast<size_t>(graph.NumFds()),
                options.initial_confidence),
        asked(static_cast<size_t>(graph.NumCells()), false) {}

  ArtifactRef artifact;
  GraphView graph;
  std::vector<double> fd_conf;
  std::vector<bool> asked;

  // Average confidence of the active FDs flagging `c` (Algorithm 2 line 3).
  double CellWeight(CellId c) const {
    double sum = 0.0;
    int count = 0;
    for (FdId f : graph.FdsOfCell(c)) {
      if (!graph.FdActive(f)) continue;
      sum += fd_conf[static_cast<size_t>(f)];
      ++count;
    }
    return count == 0 ? 0.0 : sum / count;
  }

  bool Askable(CellId c) const {
    return graph.CellActive(c) && !asked[static_cast<size_t>(c)] &&
           graph.ActiveDegreeOfCell(c) > 0;
  }

  // Accepts surviving FDs whose confidence in `conf` reached the absolute
  // cut; threshold 0 accepts every surviving FD.
  FdSet Accept(const std::vector<double>& conf, double threshold) const {
    FdSet accepted;
    graph.ForEachActiveFd([&](FdId f) {
      if (conf[static_cast<size_t>(f)] >= threshold) {
        accepted.Add(graph.fd(f));
      }
    });
    return accepted;
  }
};

// Applies the expert's answer to `c` with Algorithm 2's updates: "yes"
// bumps the confidence in `conf` of every active flagging FD, "no"
// invalidates them. Returns the FDs whose state the answer touched so
// the selector knows which classes to re-key.
std::vector<FdId> ApplyAnswer(CellRun& run, CellId c, Answer answer,
                              double delta, std::vector<double>& conf) {
  run.asked[static_cast<size_t>(c)] = true;
  std::vector<FdId> affected;
  switch (answer) {
    case Answer::kYes:
      // Confirmed violation: every flagging FD gains confidence. Only FDs
      // whose confidence actually moved (it saturates at 1) are reported:
      // an unchanged confidence cannot change any cell's score, so
      // re-keying its classes would find every key unchanged.
      for (FdId f : run.graph.FdsOfCell(c)) {
        if (run.graph.FdActive(f)) {
          double& value = conf[static_cast<size_t>(f)];
          const double bumped = std::min(1.0, value + delta);
          if (bumped != value) {
            value = bumped;
            affected.push_back(f);
          }
        }
      }
      break;
    case Answer::kNo: {
      // Certified clean: every FD that called this an error is invalid.
      // Copy the adjacency first -- DeactivateFd mutates the graph.
      for (FdId f : run.graph.FdsOfCell(c)) {
        if (run.graph.FdActive(f)) affected.push_back(f);
      }
      for (FdId f : affected) run.graph.DeactivateFd(f);
      run.graph.DeactivateCell(c);
      break;
    }
    case Answer::kIdk:
      break;
  }
  return affected;
}

// Selection over cell classes: the askable cell with the least (key,
// CellId), where every askable member of a group shares the group's key.
// A group is a class (CellClasses), or for CellQ-Oracle one of a class's
// `groups_per_class` parts; group g belongs to class g / groups_per_class.
// The pick is the cell an ascending scan with first strict improvement
// picks, since the key is the per-cell score's own expression over the
// class's FD list (DESIGN.md §14.2).
//
// Askability only ever turns off (a cell is asked, deactivates, or loses
// its last active FD), so each group keeps a forward-only cursor to its
// lowest askable member, and each member is passed over at most once per
// run. The heap holds one live entry per group with an askable member:
// (key, cell, group, stamp). A re-key pushes a fresh entry under a new
// stamp, which retires the old one. An entry's cell may lag behind the
// group's cursor; that only sorts the entry early, and it is moved up
// when it reaches the top. So the first live top whose cell is still the
// group's front is the least (key, cell) over every askable cell.
class ClassSelector {
 public:
  ClassSelector(const CellClasses& classes, int groups_per_class,
                std::vector<ConstSpan<CellId>> groups)
      : classes_(classes),
        groups_per_class_(groups_per_class),
        groups_(std::move(groups)),
        cursor_(groups_.size(), 0),
        key_(groups_.size(), 0.0),
        stamp_(groups_.size(), 0),
        touched_(static_cast<size_t>(classes.NumClasses()), false) {}

  // Keys every group with an askable member afresh: `key(g, front)` is
  // group g's key, read at its lowest askable member.
  template <typename KeyFn>
  void Reseed(const CellRun& run, const KeyFn& key) {
    heap_.clear();
    for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
      const CellId front = Front(run, g);
      if (front < 0) continue;
      const size_t i = static_cast<size_t>(g);
      key_[i] = key(g, front);
      heap_.push_back({key_[i], front, g, ++stamp_[i]});
    }
    std::make_heap(heap_.begin(), heap_.end(), Later);
  }

  // Calls `fn(k)` once for every class listing one of `fds`.
  template <typename Fn>
  void ForEachClassOf(const std::vector<FdId>& fds, const Fn& fn) {
    for (FdId f : fds) {
      for (int k : classes_.ClassesOfFd(f)) {
        if (touched_[static_cast<size_t>(k)]) continue;
        touched_[static_cast<size_t>(k)] = true;
        touched_list_.push_back(k);
      }
    }
    for (int k : touched_list_) {
      touched_[static_cast<size_t>(k)] = false;
      fn(k);
    }
    touched_list_.clear();
  }

  // Re-keys the groups of every class listing one of `fds` — the only
  // classes whose key an answer touching those FDs can move. A group
  // whose key did not change keeps its entry.
  template <typename KeyFn>
  void Rekey(const CellRun& run, const std::vector<FdId>& fds,
             const KeyFn& key) {
    ForEachClassOf(fds, [&](int k) {
      for (int g = k * groups_per_class_; g < (k + 1) * groups_per_class_;
           ++g) {
        const CellId front = Front(run, g);
        if (front < 0) continue;
        const size_t i = static_cast<size_t>(g);
        const double value = key(g, front);
        if (value == key_[i]) continue;
        key_[i] = value;
        Push({value, front, g, ++stamp_[i]});
      }
    });
  }

  // The askable cell with the least (key, CellId), or -1 when no cell is
  // askable; its key goes to `key` when given. The entry stays in the
  // heap: asking the cell makes it un-askable, and the next call moves the
  // entry on.
  CellId Best(const CellRun& run, double* key = nullptr) {
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      const size_t i = static_cast<size_t>(top.group);
      if (top.stamp != stamp_[i]) {
        Pop();
        continue;
      }
      const CellId front = Front(run, top.group);
      if (front != top.cell) {
        Pop();
        if (front >= 0) Push({top.key, front, top.group, top.stamp});
        continue;
      }
      if (key != nullptr) *key = top.key;
      return front;
    }
    return -1;
  }

 private:
  struct Entry {
    double key;
    CellId cell;
    int group;
    uint32_t stamp;
  };

  // Heap order: std's max-heap over "later", so the front is the least
  // (key, cell).
  static bool Later(const Entry& a, const Entry& b) {
    return a.key > b.key || (a.key == b.key && a.cell > b.cell);
  }

  void Push(const Entry& entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  void Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    heap_.pop_back();
  }

  // Group g's lowest askable member, or -1 once it has none.
  CellId Front(const CellRun& run, int g) {
    const ConstSpan<CellId> members = groups_[static_cast<size_t>(g)];
    size_t& at = cursor_[static_cast<size_t>(g)];
    while (at < members.size() && !run.Askable(members[at])) ++at;
    return at < members.size() ? members[at] : -1;
  }

  const CellClasses& classes_;
  const int groups_per_class_;
  std::vector<ConstSpan<CellId>> groups_;
  std::vector<size_t> cursor_;
  std::vector<double> key_;
  std::vector<uint32_t> stamp_;
  std::vector<Entry> heap_;
  // Scratch for ForEachClassOf: a class listing several touched FDs is
  // visited once.
  std::vector<bool> touched_;
  std::vector<int> touched_list_;
};

// A selector whose groups are the artifact's classes, one per class.
ClassSelector ClassesSelector(const CellRun& run) {
  const CellClasses& classes = run.artifact->classes();
  std::vector<ConstSpan<CellId>> groups;
  groups.reserve(static_cast<size_t>(classes.NumClasses()));
  for (int k = 0; k < classes.NumClasses(); ++k) {
    groups.push_back(classes.Members(k));
  }
  return ClassSelector(classes, 1, std::move(groups));
}

class CellQHittingSet : public Strategy {
 public:
  explicit CellQHittingSet(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-HS"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    // The score reads only the cell's active FDs, so it is one per class.
    const auto key = [&run](int, CellId front) { return Score(run, front); };
    ClassSelector selector = ClassesSelector(run);
    selector.Reseed(run, key);
    while (result.cost_spent + cost <= ctx.budget) {
      const CellId best = selector.Best(run);
      if (best < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best));
      result.cost_spent += cost;
      ++result.questions_asked;
      // Only classes listing a touched FD can change score: "yes" bumps
      // the flagging FDs' confidences, "no" removes them (and with them
      // degree).
      selector.Rekey(
          run, ApplyAnswer(run, best, answer, options_.delta, run.fd_conf),
          key);
    }
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  // Hitting-set rule: minimize weight / active-degree.
  static double Score(const CellRun& run, CellId c) {
    return run.CellWeight(c) / run.graph.ActiveDegreeOfCell(c);
  }

  CellStrategyOptions options_;
};

class CellQGreedy : public Strategy {
 public:
  explicit CellQGreedy(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-Greedy"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    // Greedy rule: maximize the number of flagging candidate FDs. Negated
    // so the least key is the maximum.
    const auto key = [&run](int, CellId front) {
      return -static_cast<double>(run.graph.ActiveDegreeOfCell(front));
    };
    ClassSelector selector = ClassesSelector(run);
    selector.Reseed(run, key);
    while (result.cost_spent + cost <= ctx.budget) {
      const CellId best = selector.Best(run);
      if (best < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best));
      result.cost_spent += cost;
      ++result.questions_asked;
      const std::vector<FdId> affected =
          ApplyAnswer(run, best, answer, options_.delta, run.fd_conf);
      // Degree is the whole score, and it only moves when FDs deactivate:
      // a "yes" changes confidences, never degrees.
      if (answer == Answer::kNo) selector.Rekey(run, affected, key);
    }
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

class CellQOracle : public Strategy {
 public:
  explicit CellQOracle(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-Oracle"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    UGUIDE_CHECK(ctx.true_violations != nullptr && ctx.true_fds != nullptr)
        << "CellQ-Oracle requires the true violation set and true FDs";
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();

    // The oracle knows which candidate FDs are genuinely implied by the
    // clean table's FDs.
    ClosureEngine true_closure(*ctx.true_fds);
    std::vector<bool> is_true_fd(static_cast<size_t>(run.graph.NumFds()));
    for (FdId f = 0; f < run.graph.NumFds(); ++f) {
      is_true_fd[static_cast<size_t>(f)] =
          true_closure.Implies(run.graph.fd(f));
    }

    // A question's payoff depends only on the cell's FD list and on
    // whether the cell is a true violation, so it is one per group: group
    // 2k holds class k's clean members, group 2k+1 its true violations,
    // each ascending.
    const CellClasses& classes = run.artifact->classes();
    std::vector<CellId> split;
    std::vector<uint32_t> offsets{0};
    split.reserve(static_cast<size_t>(run.graph.NumCells()));
    for (int k = 0; k < classes.NumClasses(); ++k) {
      for (const bool violation : {false, true}) {
        for (CellId c : classes.Members(k)) {
          if (ctx.true_violations->Contains(run.graph.cell(c)) == violation) {
            split.push_back(c);
          }
        }
        offsets.push_back(static_cast<uint32_t>(split.size()));
      }
    }
    std::vector<ConstSpan<CellId>> groups;
    for (size_t g = 0; g + 1 < offsets.size(); ++g) {
      groups.emplace_back(split.data() + offsets[g],
                          offsets[g + 1] - offsets[g]);
    }
    ClassSelector selector(classes, 2, std::move(groups));

    // Payoff of a question: a clean cell kills its active false FDs; a
    // true violation pushes its unaccepted true FDs toward acceptance.
    // Negated so the least key is the highest payoff.
    const auto key = [&](int g, CellId) {
      const bool is_violation = (g & 1) != 0;
      double payoff = 0.0;
      for (FdId f : classes.Fds(g / 2)) {
        if (!run.graph.FdActive(f)) continue;
        if (!is_violation) {
          payoff += is_true_fd[static_cast<size_t>(f)] ? 0.0 : 1.0;
        } else if (is_true_fd[static_cast<size_t>(f)] &&
                   run.fd_conf[static_cast<size_t>(f)] <
                       options_.accept_threshold) {
          payoff += 1.0;
        }
      }
      return -payoff;
    };
    selector.Reseed(run, key);
    while (result.cost_spent + cost <= ctx.budget) {
      // Only a question with a positive payoff is worth asking.
      double negated_payoff;
      const CellId best = selector.Best(run, &negated_payoff);
      if (best < 0 || negated_payoff >= 0.0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best));
      result.cost_spent += cost;
      ++result.questions_asked;
      selector.Rekey(
          run, ApplyAnswer(run, best, answer, options_.delta, run.fd_conf),
          key);
    }
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

// --- Cell-Q-SUMS ----------------------------------------------------------

class CellQSums : public Strategy {
 public:
  explicit CellQSums(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-SUMS"; }

  // Estimate-Confidence's cell side and the per-question score are
  // computed once per class of cells sharing a flagging-FD list, in the
  // operand order of the per-cell rescan, so fixpoint values, selected
  // questions and the report are bit-identical to it (DESIGN.md §14.2).
  StrategyResult Run(const QuestionContext& ctx) override {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    const CellClasses& classes = run.artifact->classes();
    ClassConfidence state(run.graph, classes, options_.initial_confidence);

    // Evidence confidence, separate from the Estimate-Confidence fixpoint
    // scores in state.fd_conf: acceptance follows the same confirmed-
    // violation mechanism as Algorithm 2, while the fixpoint drives
    // question selection.
    std::vector<double> evidence(static_cast<size_t>(run.graph.NumFds()),
                                 options_.initial_confidence);
    // Each class's marginal evidence (see Score), which moves only when an
    // answer touches one of its FDs.
    std::vector<double> marginal(static_cast<size_t>(classes.NumClasses()));
    const auto refresh = [&](int k) {
      marginal[static_cast<size_t>(k)] =
          Marginal(run, classes.Fds(k), evidence);
    };
    for (int k = 0; k < classes.NumClasses(); ++k) refresh(k);
    // One key orders both picks: a class with a positive score keys at
    // the negated score, below every other key, so the best-scoring
    // question comes first, ties toward the lowest CellId. Once no
    // confirmation can add evidence anymore, every class keys at its
    // confidence, and the pick is the least-trusted fallback, whose "no"
    // answer invalidates its flagging FDs: the minimum confidence, ties
    // toward the lowest CellId. The fixpoint keeps confidences in [0, 1],
    // under the rescan's fallback cap of 2.
    const auto key = [&](int k, CellId) {
      const double conf = state.conf[static_cast<size_t>(k)];
      const double score = Score(conf, marginal[static_cast<size_t>(k)]);
      return score > 0.0 ? -score : conf;
    };
    ClassSelector selector = ClassesSelector(run);
    EstimateConfidence(run, classes, state);
    selector.Reseed(run, key);
    int answers_since_estimate = 0;
    while (result.cost_spent + cost <= ctx.budget) {
      const CellId pick = selector.Best(run);
      if (pick < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(pick));
      result.cost_spent += cost;
      ++result.questions_asked;
      const std::vector<FdId> affected =
          ApplyAnswer(run, pick, answer, options_.delta, evidence);
      if (answer == Answer::kIdk) continue;  // no new evidence; re-select
      if (answer == Answer::kYes) {
        // A confirmed cell is pinned at confidence 1 and keeps feeding
        // evidence into Estimate-Confidence.
        state.SetSlot(pick, state.pinned_slot);
      }
      selector.ForEachClassOf(affected, refresh);
      // The fixpoint moves little per answer; recompute in batches. A
      // recompute moves every class's confidence; between recomputes only
      // the touched classes' marginals move.
      if (++answers_since_estimate >= options_.sums_recompute_interval) {
        EstimateConfidence(run, classes, state);
        answers_since_estimate = 0;
        selector.Reseed(run, key);
      } else {
        selector.Rekey(run, affected, key);
      }
    }
    result.accepted_fds = run.Accept(evidence, options_.sums_accept_threshold);
    return result;
  }

 private:
  // Maximum information: confidence near 1/2 (the fixpoint is unsure),
  // weighted by the *marginal* evidence the answer can add -- flagging FDs
  // that are already confirmed contribute nothing, so the strategy moves
  // on instead of re-confirming the same dependencies.
  static double Score(double conf, double marginal) {
    const double uncertainty = 1.0 - std::abs(2.0 * conf - 1.0);
    return (0.05 + uncertainty) * marginal;
  }

  static double Marginal(const CellRun& run, ConstSpan<FdId> fds,
                         const std::vector<double>& evidence) {
    double marginal = 0.0;
    for (FdId f : fds) {
      if (run.graph.FdActive(f)) {
        marginal += 1.0 - evidence[static_cast<size_t>(f)];
      }
    }
    return marginal;
  }

  static constexpr int kLanes = 4;

  // Ids 0..n-1 ordered by descending size(id), ties ascending: blocks of
  // similar lengths leave short tails. A counting sort, as sizes are list
  // lengths.
  template <typename SizeFn>
  static std::vector<int> LongestFirst(int n, const SizeFn& size) {
    std::vector<size_t> sizes(static_cast<size_t>(n));
    size_t longest = 0;
    for (int id = 0; id < n; ++id) {
      sizes[static_cast<size_t>(id)] = size(id);
      longest = std::max(longest, sizes[static_cast<size_t>(id)]);
    }
    // next[longest - s]: where the next id of size s goes.
    std::vector<int> next(longest + 2, 0);
    for (size_t s : sizes) ++next[longest - s + 1];
    for (size_t i = 1; i < next.size(); ++i) next[i] += next[i - 1];
    std::vector<int> order(static_cast<size_t>(n));
    for (int id = 0; id < n; ++id) {
      int& at = next[longest - sizes[static_cast<size_t>(id)]];
      order[static_cast<size_t>(at++)] = id;
    }
    return order;
  }

  // The Estimate-Confidence state of a class-indexed run. A cell is *live*
  // while it is active and unpinned; every live member of class k holds
  // the same confidence conf[k] (the cell-side sum reads only the class's
  // FD list), and cells only ever leave the live set, so the value a class
  // carries from one call to the next is exactly what each of its live
  // members would hold.
  struct ClassConfidence {
    ClassConfidence(const GraphView& graph, const CellClasses& classes,
                    double initial_confidence)
        : slot(static_cast<size_t>(graph.NumCells())),
          pinned_slot(classes.NumClasses()),
          dead_slot(classes.NumClasses() + 1),
          conf(static_cast<size_t>(classes.NumClasses()) + 2, 1.0),
          zero_fd(graph.NumFds()),
          fd_conf(static_cast<size_t>(graph.NumFds()) + 1, initial_confidence),
          fds_by_length(LongestFirst(graph.NumFds(), [&](FdId f) {
            return graph.CellsOfFd(f).size();
          })),
          classes_by_length(LongestFirst(classes.NumClasses(), [&](int k) {
            return classes.Fds(k).size();
          })) {
      for (CellId c = 0; c < graph.NumCells(); ++c) {
        slot[static_cast<size_t>(c)] = classes.ClassOf(c);
      }
      fd_edge_begin.assign(static_cast<size_t>(graph.NumFds()) + 1, 0);
      for (FdId f = 0; f < graph.NumFds(); ++f) {
        fd_edge_begin[static_cast<size_t>(f) + 1] =
            fd_edge_begin[static_cast<size_t>(f)] +
            static_cast<uint32_t>(graph.CellsOfFd(f).size());
      }
      cell_edge_begin.assign(static_cast<size_t>(graph.NumCells()) + 1, 0);
      for (CellId c = 0; c < graph.NumCells(); ++c) {
        cell_edge_begin[static_cast<size_t>(c) + 1] =
            cell_edge_begin[static_cast<size_t>(c)] +
            static_cast<uint32_t>(graph.FdsOfCell(c).size());
      }
      edge_slot.resize(fd_edge_begin.back());
      cell_edges.resize(fd_edge_begin.back());
      std::vector<uint32_t> next(cell_edge_begin.begin(),
                                 cell_edge_begin.end() - 1);
      uint32_t e = 0;
      for (FdId f = 0; f < graph.NumFds(); ++f) {
        for (CellId c : graph.CellsOfFd(f)) {
          edge_slot[e] = slot[static_cast<size_t>(c)];
          cell_edges[next[static_cast<size_t>(c)]++] = e++;
        }
      }
      conf[static_cast<size_t>(dead_slot)] = 0.0;
      fd_conf[static_cast<size_t>(zero_fd)] = 0.0;
    }

    // Moves cell `c` to `value`, in slot and in every edge_slot copy.
    void SetSlot(CellId c, int value) {
      slot[static_cast<size_t>(c)] = value;
      for (uint32_t i = cell_edge_begin[static_cast<size_t>(c)];
           i < cell_edge_begin[static_cast<size_t>(c) + 1]; ++i) {
        edge_slot[cell_edges[i]] = value;
      }
    }

    // FD f's edge_slot entries, in CellsOfFd order.
    ConstSpan<int> EdgeSlots(FdId f) const {
      const size_t i = static_cast<size_t>(f);
      return ConstSpan<int>(edge_slot.data() + fd_edge_begin[i],
                            fd_edge_begin[i + 1] - fd_edge_begin[i]);
    }

    // Index into conf of each cell's current confidence: its class while
    // live, pinned_slot (1.0) once confirmed, dead_slot (0.0) once
    // inactive.
    std::vector<int> slot;
    const int pinned_slot;
    const int dead_slot;
    std::vector<double> conf;
    // A copy of slot per FD-side edge, laid out like the graph's CellsOfFd
    // lists (FD f's at [fd_edge_begin[f], fd_edge_begin[f + 1])), so the
    // FD side reads one array in order; cell c's copies sit at the
    // positions cell_edges[cell_edge_begin[c], cell_edge_begin[c + 1]).
    std::vector<uint32_t> fd_edge_begin;
    std::vector<int> edge_slot;
    std::vector<uint32_t> cell_edge_begin;
    std::vector<uint32_t> cell_edges;
    // The fixpoint's FD confidences, plus one last entry, zero_fd, that
    // stays +0.0 and pads the cell side's blocks.
    const FdId zero_fd;
    std::vector<double> fd_conf;
    // Every FD, longest CellsOfFd list first, and every class, longest FD
    // list first; the two sides' block orders.
    const std::vector<FdId> fds_by_length;
    const std::vector<int> classes_by_length;
    // The cell side's operands (LayOutClasses): the classes live at the
    // last layout in blocks of kLanes (class_block; -1 pads the last
    // block), and per block the lanes' FD lists interleaved element by
    // element, each padded with zero_fd to the block's longest
    // (class_block_fds[class_block_begin[b], class_block_begin[b + 1])).
    // laid_out counts the classes laid out.
    std::vector<int> class_block;
    std::vector<int> class_block_begin;
    std::vector<FdId> class_block_fds;
    size_t laid_out = 0;
  };

  // Lays out the cell side's blocks over `live`, longest FD list first.
  static void LayOutClasses(const CellClasses& classes,
                            const std::vector<int>& live,
                            ClassConfidence& state) {
    state.laid_out = live.size();
    state.class_block = live;
    while (state.class_block.size() % kLanes != 0) {
      state.class_block.push_back(-1);
    }
    state.class_block_fds.clear();
    state.class_block_begin.assign(1, 0);
    for (size_t b = 0; b < state.class_block.size(); b += kLanes) {
      ConstSpan<FdId> lanes[kLanes];
      for (int j = 0; j < kLanes; ++j) {
        const int k = state.class_block[b + static_cast<size_t>(j)];
        if (k >= 0) lanes[j] = classes.Fds(k);
      }
      for (size_t i = 0; i < lanes[0].size(); ++i) {
        for (const ConstSpan<FdId>& lane : lanes) {
          state.class_block_fds.push_back(i < lane.size() ? lane[i]
                                                          : state.zero_fd);
        }
      }
      state.class_block_begin.push_back(
          static_cast<int>(state.class_block_fds.size()));
    }
  }

  // Algorithm 4: alternate confidence propagation between FDs and
  // violations until convergence. FD confidence = log-boosted average of
  // its violations' confidences; violation confidence = sum of its FDs'
  // confidences; both max-normalized each round. Pinned (expert-labelled)
  // cells keep their value.
  //
  // Computed over classes, bit-identically to the per-cell fixpoint
  // (tests/reference/cell_rescan). The FD side walks each active FD's
  // CellsOfFd in CSR order, adding each cell's value through its slot
  // (read from the FD's edge_slot copies): the class value while live, 1
  // when pinned, and +0.0 when inactive, which leaves the non-negative
  // sum bitwise unchanged; the count is the FD's active degree, the
  // number of active cells a per-cell walk counts. The cell side
  // computes one sum per live class over the class's ascending FD list —
  // the operand sequence a per-cell walk repeats for every member — so
  // the max over live classes is the max over live cells and every
  // normalized value is bitwise the per-cell one. It adds every listed
  // FD's value, inactive ones included: the FD side has just set those to
  // +0.0, which leaves the sum unchanged as a skipped term would.
  //
  // Both sides sum kLanes lists side by side, each in its own order, so
  // the short serial chains of additions overlap instead of each waiting
  // on a mispredicted loop exit, and no sum changes. The FD side reads
  // the active FDs' edge_slot spans in place, longest first, in lockstep
  // up to a block's shortest list and then each list's rest on its own.
  // The cell side's lists are a few FDs long, so it streams the
  // interleaved blocks of LayOutClasses instead, where zero_fd pads a
  // lane without changing its sum; the blocks are laid out again only
  // once a quarter of the classes in them has no live member left, and
  // until then such classes are summed and dropped.
  void EstimateConfidence(const CellRun& run, const CellClasses& classes,
                          ClassConfidence& state) const {
    // Answers since the last call deactivated cells; retire their slots
    // and collect the classes that still have a live member.
    std::vector<bool> has_live(static_cast<size_t>(classes.NumClasses()),
                               false);
    for (CellId c = 0; c < run.graph.NumCells(); ++c) {
      const int slot = state.slot[static_cast<size_t>(c)];
      if (!run.graph.CellActive(c)) {
        if (slot != state.dead_slot) state.SetSlot(c, state.dead_slot);
      } else if (slot < state.pinned_slot) {
        has_live[static_cast<size_t>(slot)] = true;
      }
    }
    std::vector<int> live_classes;
    for (int k : state.classes_by_length) {
      if (has_live[static_cast<size_t>(k)]) live_classes.push_back(k);
    }
    if (state.class_block_begin.empty() ||
        4 * live_classes.size() < 3 * state.laid_out) {
      LayOutClasses(classes, live_classes, state);
    }
    std::vector<FdId> active_fds;
    for (FdId f : state.fds_by_length) {
      if (run.graph.FdActive(f)) active_fds.push_back(f);
    }

    const int num_fds = run.graph.NumFds();
    std::vector<double> next_fd(state.fd_conf.size());
    for (int iter = 0; iter < options_.sums_max_iterations; ++iter) {
      double max_delta = 0.0;
      // FD side.
      double max_fd = 0.0;
      std::fill(next_fd.begin(), next_fd.end(), 0.0);
      for (size_t b = 0; b < active_fds.size(); b += kLanes) {
        const size_t width = std::min<size_t>(kLanes, active_fds.size() - b);
        ConstSpan<int> slots[kLanes];
        for (size_t j = 0; j < width; ++j) {
          slots[j] = state.EdgeSlots(active_fds[b + j]);
        }
        size_t common = slots[0].size();
        for (const ConstSpan<int>& lane : slots) {
          common = std::min(common, lane.size());
        }
        const auto value = [&state](int slot) {
          return state.conf[static_cast<size_t>(slot)];
        };
        double sum[kLanes] = {};
        for (size_t i = 0; i < common; ++i) {
          for (int j = 0; j < kLanes; ++j) sum[j] += value(slots[j][i]);
        }
        for (int j = 0; j < kLanes; ++j) {
          for (size_t i = common; i < slots[j].size(); ++i) {
            sum[j] += value(slots[j][i]);
          }
        }
        for (size_t j = 0; j < width; ++j) {
          const FdId f = active_fds[b + j];
          const int count = run.graph.ActiveDegreeOfFd(f);
          double& next = next_fd[static_cast<size_t>(f)];
          next = count == 0 ? 0.0 : std::log(1.0 + count) * (sum[j] / count);
          max_fd = std::max(max_fd, next);
        }
      }
      if (max_fd > 0.0) {
        for (double& v : next_fd) v /= max_fd;
      }
      for (FdId f = 0; f < num_fds; ++f) {
        max_delta = std::max(max_delta,
                             std::abs(next_fd[static_cast<size_t>(f)] -
                                      state.fd_conf[static_cast<size_t>(f)]));
      }
      state.fd_conf.swap(next_fd);

      // Violation side, once per live class.
      double max_cell = 0.0;
      for (size_t b = 0; b + 1 < state.class_block_begin.size(); ++b) {
        double sum[kLanes] = {};
        for (int e = state.class_block_begin[b];
             e < state.class_block_begin[b + 1]; e += kLanes) {
          for (int j = 0; j < kLanes; ++j) {
            const FdId f = state.class_block_fds[static_cast<size_t>(e + j)];
            sum[j] += state.fd_conf[static_cast<size_t>(f)];
          }
        }
        for (int j = 0; j < kLanes; ++j) {
          const int k = state.class_block[b * kLanes + static_cast<size_t>(j)];
          if (k < 0 || !has_live[static_cast<size_t>(k)]) continue;
          state.conf[static_cast<size_t>(k)] = sum[j];
          max_cell = std::max(max_cell, sum[j]);
        }
      }
      if (max_cell > 0.0) {
        for (int k : live_classes) {
          state.conf[static_cast<size_t>(k)] /= max_cell;
        }
      }

      if (max_delta < options_.sums_tolerance) break;
    }
  }

  CellStrategyOptions options_;
};

}  // namespace

std::unique_ptr<Strategy> MakeCellQHittingSet(
    const CellStrategyOptions& options) {
  return std::make_unique<CellQHittingSet>(options);
}

std::unique_ptr<Strategy> MakeCellQSums(const CellStrategyOptions& options) {
  return std::make_unique<CellQSums>(options);
}

std::unique_ptr<Strategy> MakeCellQGreedy(const CellStrategyOptions& options) {
  return std::make_unique<CellQGreedy>(options);
}

std::unique_ptr<Strategy> MakeCellQOracle(const CellStrategyOptions& options) {
  return std::make_unique<CellQOracle>(options);
}

}  // namespace uguide
