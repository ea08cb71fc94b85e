#include "core/cell_strategies.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
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
// the selection heaps know which cells to rescore.
std::vector<FdId> ApplyAnswer(CellRun& run, CellId c, Answer answer,
                              double delta, std::vector<double>& conf) {
  run.asked[static_cast<size_t>(c)] = true;
  std::vector<FdId> affected;
  switch (answer) {
    case Answer::kYes:
      // Confirmed violation: every flagging FD gains confidence. Only FDs
      // whose confidence actually moved (it saturates at 1) are reported:
      // an unchanged confidence cannot change any cell's score, so
      // rescoring its cells would push byte-identical heap entries.
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

// Lazy-invalidation selector: a min-heap over (score, cell) that pops the
// askable cell with the smallest score, ties toward the lowest CellId —
// exactly the cell a linear rescan (first strict improvement) would pick.
// Rescoring pushes a fresh entry instead of updating in place; stale
// entries are recognized on pop by comparing against the score array.
// Scores are recomputed by the same floating-point expression a rescan
// uses, so the staleness equality test and the selected cells are exact.
class SelectionHeap {
 public:
  explicit SelectionHeap(int num_cells)
      : score_(static_cast<size_t>(num_cells), 0.0) {}

  void Update(CellId c, double score) {
    score_[static_cast<size_t>(c)] = score;
    heap_.emplace(score, c);
  }

  // The askable cell with the minimal (score, id). Does not pop the
  // returned entry: asking marks the cell un-askable, which retires the
  // entry on the next call. Returns -1 when no candidate remains.
  template <typename AskableFn>
  CellId Best(const AskableFn& askable) {
    while (!heap_.empty()) {
      const auto [score, c] = heap_.top();
      if (!askable(c) || score != score_[static_cast<size_t>(c)]) {
        heap_.pop();
        continue;
      }
      return c;
    }
    return -1;
  }

 private:
  std::vector<double> score_;
  std::priority_queue<std::pair<double, CellId>,
                      std::vector<std::pair<double, CellId>>,
                      std::greater<std::pair<double, CellId>>>
      heap_;
};

class CellQHittingSet : public Strategy {
 public:
  explicit CellQHittingSet(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-HS"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    SelectionHeap heap(run.graph.NumCells());
    // Word scan: only active cells are visited, and Askable implies active,
    // so seeding the heap over the bitmap matches the dense 0..NumCells
    // scan exactly (ascending, same entries).
    run.graph.ForEachActiveCell([&](CellId c) {
      if (run.Askable(c)) heap.Update(c, Score(run, c));
    });
    const auto askable = [&run](CellId c) { return run.Askable(c); };
    // Scratch for per-answer rescoring: a cell adjacent to several touched
    // FDs is rescored once, not once per FD (CellWeight is O(degree)).
    std::vector<bool> seen(static_cast<size_t>(run.graph.NumCells()), false);
    std::vector<CellId> touched;
    while (result.cost_spent + cost <= ctx.budget) {
      const CellId best = heap.Best(askable);
      if (best < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best));
      result.cost_spent += cost;
      ++result.questions_asked;
      // Only cells adjacent to a touched FD can change score: "yes" bumps
      // the flagging FDs' confidences, "no" removes them (and with them
      // degree). Everything else keeps its fresh heap entry.
      const std::vector<FdId> affected =
          ApplyAnswer(run, best, answer, options_.delta, run.fd_conf);
      for (FdId f : affected) {
        for (CellId c : run.graph.CellsOfFd(f)) {
          if (seen[static_cast<size_t>(c)] || !run.Askable(c)) continue;
          seen[static_cast<size_t>(c)] = true;
          touched.push_back(c);
          heap.Update(c, Score(run, c));
        }
      }
      for (CellId c : touched) seen[static_cast<size_t>(c)] = false;
      touched.clear();
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
    SelectionHeap heap(run.graph.NumCells());
    // Word scan: only active cells are visited, and Askable implies active,
    // so seeding the heap over the bitmap matches the dense 0..NumCells
    // scan exactly (ascending, same entries).
    run.graph.ForEachActiveCell([&](CellId c) {
      if (run.Askable(c)) heap.Update(c, Score(run, c));
    });
    const auto askable = [&run](CellId c) { return run.Askable(c); };
    std::vector<bool> seen(static_cast<size_t>(run.graph.NumCells()), false);
    std::vector<CellId> touched;
    while (result.cost_spent + cost <= ctx.budget) {
      const CellId best = heap.Best(askable);
      if (best < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best));
      result.cost_spent += cost;
      ++result.questions_asked;
      const std::vector<FdId> affected =
          ApplyAnswer(run, best, answer, options_.delta, run.fd_conf);
      // Degree is the whole score, and it only moves when FDs deactivate:
      // a "yes" changes confidences, never degrees, so every heap entry
      // stays exact and rescoring would push duplicates.
      if (answer != Answer::kNo) continue;
      for (FdId f : affected) {
        for (CellId c : run.graph.CellsOfFd(f)) {
          if (seen[static_cast<size_t>(c)] || !run.Askable(c)) continue;
          seen[static_cast<size_t>(c)] = true;
          touched.push_back(c);
          heap.Update(c, Score(run, c));
        }
      }
      for (CellId c : touched) seen[static_cast<size_t>(c)] = false;
      touched.clear();
    }
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  // Greedy rule: maximize the number of flagging candidate FDs. Negated so
  // the shared min-heap selects the maximum; degrees are small integers,
  // exactly representable, so staleness equality is exact.
  static double Score(const CellRun& run, CellId c) {
    return -static_cast<double>(run.graph.ActiveDegreeOfCell(c));
  }

  CellStrategyOptions options_;
};

// Groups of cells, each listed ascending, with a forward-only cursor to
// every group's lowest askable member. Askability only ever turns off (a
// cell is asked, deactivates, or loses its last active FD), so no cursor
// moves back and each member is passed over at most once per run. A group
// with no askable member left drops out of the scan for good.
class AskableFronts {
 public:
  explicit AskableFronts(std::vector<ConstSpan<CellId>> groups)
      : groups_(std::move(groups)),
        cursor_(groups_.size(), 0),
        open_(groups_.size()) {
    for (size_t g = 0; g < open_.size(); ++g) open_[g] = static_cast<int>(g);
  }

  // Calls `fn(group, lowest askable member)` for every group that still
  // has an askable member, in ascending group order.
  template <typename Fn>
  void ForEach(const CellRun& run, const Fn& fn) {
    size_t kept = 0;
    for (int g : open_) {
      const ConstSpan<CellId> members = groups_[static_cast<size_t>(g)];
      size_t& at = cursor_[static_cast<size_t>(g)];
      while (at < members.size() && !run.Askable(members[at])) ++at;
      if (at == members.size()) continue;
      open_[kept++] = g;
      fn(g, members[at]);
    }
    open_.resize(kept);
  }

 private:
  std::vector<ConstSpan<CellId>> groups_;
  std::vector<size_t> cursor_;
  std::vector<int> open_;
};

// Running arg-max over offered (cell, score) pairs: the highest score
// above `floor`, ties toward the lowest CellId. Offered in any order, it
// picks the cell an ascending scan with first-strict-improvement picks.
struct Argmax {
  explicit Argmax(double floor) : score(floor) {}

  void Offer(CellId c, double s) {
    if (s > score || (s == score && cell >= 0 && c < cell)) {
      cell = c;
      score = s;
    }
  }

  CellId cell = -1;
  double score;
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
    // whether the cell is a true violation, so it is computed once per
    // group: group 2k holds class k's clean members, group 2k+1 its true
    // violations, each ascending.
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
    AskableFronts fronts(std::move(groups));

    while (result.cost_spent + cost <= ctx.budget) {
      // Payoff of a question: a clean cell kills its active false FDs; a
      // true violation pushes its unaccepted true FDs toward acceptance.
      Argmax best(0.0);
      fronts.ForEach(run, [&](int g, CellId c) {
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
        best.Offer(c, payoff);
      });
      if (best.cell < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best.cell));
      result.cost_spent += cost;
      ++result.questions_asked;
      ApplyAnswer(run, best.cell, answer, options_.delta, run.fd_conf);
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
    std::vector<ConstSpan<CellId>> groups;
    for (int k = 0; k < classes.NumClasses(); ++k) {
      groups.push_back(classes.Members(k));
    }
    AskableFronts fronts(std::move(groups));

    // Evidence confidence, separate from the Estimate-Confidence fixpoint
    // scores in state.fd_conf: acceptance follows the same confirmed-
    // violation mechanism as Algorithm 2, while the fixpoint drives
    // question selection.
    std::vector<double> evidence(static_cast<size_t>(run.graph.NumFds()),
                                 options_.initial_confidence);
    EstimateConfidence(run, classes, state);
    int answers_since_estimate = 0;
    while (result.cost_spent + cost <= ctx.budget) {
      // One pass yields both the best-scoring question and, when no
      // confirmation can add evidence anymore, the least-trusted fallback,
      // whose "no" answer invalidates its flagging FDs. The fallback
      // maximizes the negated confidence: the strict minimum below 2, ties
      // toward the lowest CellId.
      Argmax best(0.0);
      Argmax least(-2.0);
      fronts.ForEach(run, [&](int k, CellId c) {
        const double conf = state.conf[static_cast<size_t>(k)];
        best.Offer(c, Score(run, conf, classes.Fds(k), evidence));
        least.Offer(c, -conf);
      });
      const CellId pick = best.cell >= 0 ? best.cell : least.cell;
      if (pick < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(pick));
      result.cost_spent += cost;
      ++result.questions_asked;
      ApplyAnswer(run, pick, answer, options_.delta, evidence);
      if (answer == Answer::kIdk) continue;  // no new evidence; re-select
      if (answer == Answer::kYes) {
        // A confirmed cell is pinned at confidence 1 and keeps feeding
        // evidence into Estimate-Confidence.
        state.slot[static_cast<size_t>(pick)] = state.pinned_slot;
      }
      // The fixpoint moves little per answer; recompute in batches.
      if (++answers_since_estimate >= options_.sums_recompute_interval) {
        EstimateConfidence(run, classes, state);
        answers_since_estimate = 0;
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
  static double Score(const CellRun& run, double conf, ConstSpan<FdId> fds,
                      const std::vector<double>& evidence) {
    const double uncertainty = 1.0 - std::abs(2.0 * conf - 1.0);
    double marginal = 0.0;
    for (FdId f : fds) {
      if (run.graph.FdActive(f)) {
        marginal += 1.0 - evidence[static_cast<size_t>(f)];
      }
    }
    return (0.05 + uncertainty) * marginal;
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
          fd_conf(static_cast<size_t>(graph.NumFds()), initial_confidence),
          by_length(static_cast<size_t>(classes.NumClasses())) {
      for (CellId c = 0; c < graph.NumCells(); ++c) {
        slot[static_cast<size_t>(c)] = classes.ClassOf(c);
      }
      conf[static_cast<size_t>(dead_slot)] = 0.0;
      fd_conf.push_back(0.0);
      std::iota(by_length.begin(), by_length.end(), 0);
      std::stable_sort(by_length.begin(), by_length.end(), [&](int a, int b) {
        return classes.Fds(a).size() > classes.Fds(b).size();
      });
    }

    // Index into conf of each cell's current confidence: its class while
    // live, pinned_slot (1.0) once confirmed, dead_slot (0.0) once
    // inactive.
    std::vector<int> slot;
    const int pinned_slot;
    const int dead_slot;
    std::vector<double> conf;
    // The fixpoint's FD confidences, plus one last entry, zero_fd, that
    // stays +0.0 and pads the blocks below.
    const FdId zero_fd;
    std::vector<double> fd_conf;
    // Every class, longest FD list first.
    std::vector<int> by_length;
    // The cell side's operands, laid out at the start of every call: the
    // live classes in blocks of kLanes in by_length order (block_class;
    // -1 pads the last block), and per block the lanes' FD lists
    // interleaved element by element, each padded with zero_fd to the
    // block's longest (block_fds[block_begin[b], block_begin[b + 1])).
    std::vector<int> block_class;
    std::vector<int> block_begin;
    std::vector<FdId> block_fds;
  };

  static constexpr int kLanes = 4;

  // Lays out the cell side's blocks over the classes marked in `has_live`.
  static void LayOutBlocks(const CellClasses& classes,
                           const std::vector<bool>& has_live,
                           ClassConfidence& state) {
    state.block_class.clear();
    for (int k : state.by_length) {
      if (has_live[static_cast<size_t>(k)]) state.block_class.push_back(k);
    }
    while (state.block_class.size() % kLanes != 0) {
      state.block_class.push_back(-1);
    }
    state.block_fds.clear();
    state.block_begin.assign(1, 0);
    for (size_t b = 0; b < state.block_class.size(); b += kLanes) {
      ConstSpan<FdId> fds[kLanes];
      for (int j = 0; j < kLanes; ++j) {
        const int k = state.block_class[b + static_cast<size_t>(j)];
        if (k >= 0) fds[j] = classes.Fds(k);
      }
      for (size_t i = 0; i < fds[0].size(); ++i) {
        for (const ConstSpan<FdId>& lane : fds) {
          state.block_fds.push_back(i < lane.size() ? lane[i] : state.zero_fd);
        }
      }
      state.block_begin.push_back(static_cast<int>(state.block_fds.size()));
    }
  }

  // Algorithm 4: alternate confidence propagation between FDs and
  // violations until convergence. FD confidence = log-boosted average of
  // its violations' confidences; violation confidence = sum of its FDs'
  // confidences; both max-normalized each round. Pinned (expert-labelled)
  // cells keep their value.
  //
  // Computed over classes, bit-identically to the per-cell fixpoint
  // (tests/reference/cell_rescan). The FD side walks CellsOfFd in CSR
  // order, adding each cell's value through its slot: the class value
  // while live, 1 when pinned, and +0.0 when inactive, which leaves the
  // non-negative sum bitwise unchanged; the count is the FD's active
  // degree, the number of active cells a per-cell walk counts. The cell
  // side computes one sum per live class over the class's ascending FD
  // list — the operand sequence a per-cell walk repeats for every member —
  // so the max over live classes is the max over live cells and every
  // normalized value is bitwise the per-cell one. It adds every listed
  // FD's value, inactive ones included: the FD side has just set those to
  // +0.0, which leaves the sum unchanged as a skipped term would. The
  // sums run kLanes classes side by side, so the short serial chains of
  // additions overlap instead of each waiting on a mispredicted loop exit;
  // zero_fd pads a lane without changing its sum.
  void EstimateConfidence(const CellRun& run, const CellClasses& classes,
                          ClassConfidence& state) const {
    const int num_fds = run.graph.NumFds();
    // Answers since the last call deactivated cells; retire their slots
    // and collect the classes that still have a live member.
    std::vector<bool> has_live(static_cast<size_t>(classes.NumClasses()),
                               false);
    for (CellId c = 0; c < run.graph.NumCells(); ++c) {
      int& slot = state.slot[static_cast<size_t>(c)];
      if (!run.graph.CellActive(c)) {
        slot = state.dead_slot;
      } else if (slot < state.pinned_slot) {
        has_live[static_cast<size_t>(slot)] = true;
      }
    }
    LayOutBlocks(classes, has_live, state);

    std::vector<double> next_fd(state.fd_conf.size(), 0.0);
    for (int iter = 0; iter < options_.sums_max_iterations; ++iter) {
      double max_delta = 0.0;
      // FD side.
      double max_fd = 0.0;
      for (FdId f = 0; f < num_fds; ++f) {
        next_fd[static_cast<size_t>(f)] = 0.0;
        if (!run.graph.FdActive(f)) continue;
        const int count = run.graph.ActiveDegreeOfFd(f);
        double sum = 0.0;
        for (CellId c : run.graph.CellsOfFd(f)) {
          const int slot = state.slot[static_cast<size_t>(c)];
          sum += state.conf[static_cast<size_t>(slot)];
        }
        next_fd[static_cast<size_t>(f)] =
            count == 0 ? 0.0 : std::log(1.0 + count) * (sum / count);
        max_fd = std::max(max_fd, next_fd[static_cast<size_t>(f)]);
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
      for (size_t b = 0; b + 1 < state.block_begin.size(); ++b) {
        double sum[kLanes] = {};
        for (int e = state.block_begin[b]; e < state.block_begin[b + 1];
             e += kLanes) {
          for (int j = 0; j < kLanes; ++j) {
            const FdId f = state.block_fds[static_cast<size_t>(e + j)];
            sum[j] += state.fd_conf[static_cast<size_t>(f)];
          }
        }
        for (int j = 0; j < kLanes; ++j) {
          const int k = state.block_class[b * kLanes + static_cast<size_t>(j)];
          if (k < 0) continue;
          state.conf[static_cast<size_t>(k)] = sum[j];
          max_cell = std::max(max_cell, sum[j]);
        }
      }
      if (max_cell > 0.0) {
        for (int k : state.block_class) {
          if (k >= 0) state.conf[static_cast<size_t>(k)] /= max_cell;
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
