#include "core/cell_strategies.h"

#include <algorithm>
#include <cmath>
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

  // Accepts surviving FDs whose confidence reached the absolute cut;
  // threshold 0 accepts every surviving FD.
  FdSet Accept(double threshold) const {
    FdSet accepted;
    graph.ForEachActiveFd([&](FdId f) {
      if (fd_conf[static_cast<size_t>(f)] >= threshold) {
        accepted.Add(graph.fd(f));
      }
    });
    return accepted;
  }
};

// Applies the expert's answer to `c` with Algorithm 2's updates. Returns
// the FDs whose state the answer touched (confidence bump on "yes",
// deactivation on "no") so incremental selectors know which cells to
// rescore.
std::vector<FdId> ApplyAnswer(CellRun& run, CellId c, Answer answer,
                              double delta) {
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
          double& conf = run.fd_conf[static_cast<size_t>(f)];
          const double bumped = std::min(1.0, conf + delta);
          if (bumped != conf) {
            conf = bumped;
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
// exactly the cell the reference linear scan (first strict improvement)
// would pick. Rescoring pushes a fresh entry instead of updating in place;
// stale entries are recognized on pop by comparing against the score
// array. Scores are recomputed by the same floating-point expression the
// reference scan uses, so the staleness equality test and the selected
// cells are exact.
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
    return options_.incremental ? RunIncremental(ctx) : RunReference(ctx);
  }

 private:
  // Hitting-set rule: minimize weight / active-degree.
  static double Score(const CellRun& run, CellId c) {
    return run.CellWeight(c) / run.graph.ActiveDegreeOfCell(c);
  }

  StrategyResult RunIncremental(const QuestionContext& ctx) const {
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
      for (FdId f : ApplyAnswer(run, best, answer, options_.delta)) {
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
    result.accepted_fds = run.Accept(options_.accept_threshold);
    return result;
  }

  // The original full-rescan selection, retained as the behavioral
  // reference for the equivalence suite.
  StrategyResult RunReference(const QuestionContext& ctx) const {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    while (result.cost_spent + cost <= ctx.budget) {
      CellId best = -1;
      double best_score = 0.0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        const double score = Score(run, c);
        if (best < 0 || score < best_score) {
          best = c;
          best_score = score;
        }
      }
      if (best < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best));
      result.cost_spent += cost;
      ++result.questions_asked;
      ApplyAnswer(run, best, answer, options_.delta);
    }
    result.accepted_fds = run.Accept(options_.accept_threshold);
    return result;
  }

  CellStrategyOptions options_;
};

class CellQGreedy : public Strategy {
 public:
  explicit CellQGreedy(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-Greedy"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    return options_.incremental ? RunIncremental(ctx) : RunReference(ctx);
  }

 private:
  // Greedy rule: maximize the number of flagging candidate FDs. Negated so
  // the shared min-heap selects the maximum; degrees are small integers,
  // exactly representable, so staleness equality is exact.
  static double Score(const CellRun& run, CellId c) {
    return -static_cast<double>(run.graph.ActiveDegreeOfCell(c));
  }

  StrategyResult RunIncremental(const QuestionContext& ctx) const {
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
          ApplyAnswer(run, best, answer, options_.delta);
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
    result.accepted_fds = run.Accept(options_.accept_threshold);
    return result;
  }

  StrategyResult RunReference(const QuestionContext& ctx) const {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    while (result.cost_spent + cost <= ctx.budget) {
      CellId best = -1;
      int best_degree = 0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        const int degree = run.graph.ActiveDegreeOfCell(c);
        if (degree > best_degree) {
          best = c;
          best_degree = degree;
        }
      }
      if (best < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best));
      result.cost_spent += cost;
      ++result.questions_asked;
      ApplyAnswer(run, best, answer, options_.delta);
    }
    result.accepted_fds = run.Accept(options_.accept_threshold);
    return result;
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
      ApplyAnswer(run, best.cell, answer, options_.delta);
    }
    result.accepted_fds = run.Accept(options_.accept_threshold);
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

  StrategyResult Run(const QuestionContext& ctx) override {
    return options_.incremental ? RunClasses(ctx) : RunReference(ctx);
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

  // Records the expert's answer to `c`: a "yes" raises the evidence of its
  // active flagging FDs, a "no" invalidates them. Pinning the confirmed
  // cell is left to the caller, which keeps its own confidence layout.
  void ApplySumsAnswer(CellRun& run, CellId c, Answer answer,
                       std::vector<double>& evidence) const {
    run.asked[static_cast<size_t>(c)] = true;
    switch (answer) {
      case Answer::kYes:
        for (FdId f : run.graph.FdsOfCell(c)) {
          if (run.graph.FdActive(f)) {
            double& conf = evidence[static_cast<size_t>(f)];
            conf = std::min(1.0, conf + options_.delta);
          }
        }
        break;
      case Answer::kNo: {
        std::vector<FdId> flagging;
        for (FdId f : run.graph.FdsOfCell(c)) {
          if (run.graph.FdActive(f)) flagging.push_back(f);
        }
        for (FdId f : flagging) run.graph.DeactivateFd(f);
        run.graph.DeactivateCell(c);
        break;
      }
      case Answer::kIdk:
        break;
    }
  }

  // Accept like Algorithm 2, from the evidence confidences.
  FdSet AcceptEvidence(const CellRun& run,
                       const std::vector<double>& evidence) const {
    FdSet accepted;
    for (FdId f = 0; f < run.graph.NumFds(); ++f) {
      if (run.graph.FdActive(f) &&
          evidence[static_cast<size_t>(f)] >= options_.sums_accept_threshold) {
        accepted.Add(run.graph.fd(f));
      }
    }
    return accepted;
  }

  // The Estimate-Confidence state of a class-indexed run. A cell is *live*
  // while it is active and unpinned; every live member of class k holds
  // the same confidence conf[k] (the cell-side sum reads only the class's
  // FD list), and cells only ever leave the live set, so the value a class
  // carries from one call to the next is exactly what each of its live
  // members would hold.
  struct ClassConfidence {
    ClassConfidence(const GraphView& graph, const CellClasses& classes)
        : slot(static_cast<size_t>(graph.NumCells())),
          pinned_slot(classes.NumClasses()),
          dead_slot(classes.NumClasses() + 1),
          conf(static_cast<size_t>(classes.NumClasses()) + 2, 1.0) {
      for (CellId c = 0; c < graph.NumCells(); ++c) {
        slot[static_cast<size_t>(c)] = classes.ClassOf(c);
      }
      conf[static_cast<size_t>(dead_slot)] = 0.0;
    }

    // Index into conf of each cell's current confidence: its class while
    // live, pinned_slot (1.0) once confirmed, dead_slot (0.0) once
    // inactive.
    std::vector<int> slot;
    const int pinned_slot;
    const int dead_slot;
    std::vector<double> conf;
    // Live classes, ascending; recomputed at the start of every call.
    std::vector<int> live;
  };

  // The class-indexed run: Estimate-Confidence's cell side and the
  // per-question score are computed once per class of cells sharing a
  // flagging-FD list, with the reference's operand order, so fixpoint
  // values, selected questions and the report are bit-identical to
  // RunReference (DESIGN.md §14.2).
  StrategyResult RunClasses(const QuestionContext& ctx) const {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    const CellClasses& classes = run.artifact->classes();
    ClassConfidence state(run.graph, classes);
    std::vector<ConstSpan<CellId>> groups;
    for (int k = 0; k < classes.NumClasses(); ++k) {
      groups.push_back(classes.Members(k));
    }
    AskableFronts fronts(std::move(groups));

    // Evidence confidence, separate from the fixpoint scores in
    // run.fd_conf (see RunReference).
    std::vector<double> evidence(static_cast<size_t>(run.graph.NumFds()),
                                 options_.initial_confidence);
    EstimateConfidenceClasses(run, classes, state);
    int answers_since_estimate = 0;
    while (result.cost_spent + cost <= ctx.budget) {
      // One pass yields both the best-scoring question and the
      // least-trusted fallback (RunReference's two scans); the fallback
      // maximizes the negated confidence, which is the reference's strict
      // minimum below 2 with the same tie rule.
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
      ApplySumsAnswer(run, pick, answer, evidence);
      if (answer == Answer::kIdk) continue;  // no new evidence; re-select
      if (answer == Answer::kYes) {
        state.slot[static_cast<size_t>(pick)] = state.pinned_slot;
      }
      if (++answers_since_estimate >= options_.sums_recompute_interval) {
        EstimateConfidenceClasses(run, classes, state);
        answers_since_estimate = 0;
      }
    }
    result.accepted_fds = AcceptEvidence(run, evidence);
    return result;
  }

  // The original per-cell run, retained as the behavioral reference for
  // the equivalence suite.
  StrategyResult RunReference(const QuestionContext& ctx) const {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    std::vector<double> cell_conf(static_cast<size_t>(run.graph.NumCells()),
                                  1.0);
    // Cells the expert confirmed as violations are pinned at confidence 1
    // and keep feeding evidence into Estimate-Confidence.
    std::vector<bool> pinned(static_cast<size_t>(run.graph.NumCells()),
                             false);

    // Evidence confidence, separate from the Estimate-Confidence fixpoint
    // scores in run.fd_conf: acceptance follows the same confirmed-
    // violation mechanism as Algorithm 2, while the fixpoint drives
    // question selection.
    std::vector<double> evidence(static_cast<size_t>(run.graph.NumFds()),
                                 options_.initial_confidence);
    EstimateConfidenceReference(run, cell_conf, pinned);
    int answers_since_estimate = 0;
    while (result.cost_spent + cost <= ctx.budget) {
      CellId best = -1;
      double best_score = 0.0;
      run.graph.ForEachActiveCell([&](CellId c) {
        if (!run.Askable(c)) return;
        const double score = Score(run, cell_conf[static_cast<size_t>(c)],
                                   run.graph.FdsOfCell(c), evidence);
        if (score > best_score) {
          best = c;
          best_score = score;
        }
      });
      if (best < 0) {
        // No confirmation can add evidence anymore; spend leftover budget
        // hunting false positives instead: ask the least trusted violation,
        // whose "no" answer invalidates its flagging FDs.
        double lowest = 2.0;
        run.graph.ForEachActiveCell([&](CellId c) {
          if (!run.Askable(c)) return;
          if (cell_conf[static_cast<size_t>(c)] < lowest) {
            best = c;
            lowest = cell_conf[static_cast<size_t>(c)];
          }
        });
      }
      if (best < 0) break;
      Answer answer = ctx.expert->IsCellErroneous(run.graph.cell(best));
      result.cost_spent += cost;
      ++result.questions_asked;
      ApplySumsAnswer(run, best, answer, evidence);
      if (answer == Answer::kIdk) continue;  // no new evidence; re-select
      if (answer == Answer::kYes) {
        pinned[static_cast<size_t>(best)] = true;
        cell_conf[static_cast<size_t>(best)] = 1.0;
      }
      // The fixpoint moves little per answer; recompute in batches.
      if (++answers_since_estimate >= options_.sums_recompute_interval) {
        EstimateConfidenceReference(run, cell_conf, pinned);
        answers_since_estimate = 0;
      }
    }
    result.accepted_fds = AcceptEvidence(run, evidence);
    return result;
  }

  // Algorithm 4: alternate confidence propagation between FDs and
  // violations until convergence. FD confidence = log-boosted average of
  // its violations' confidences; violation confidence = sum of its FDs'
  // confidences; both max-normalized each round. Pinned (expert-labelled)
  // cells keep their value. Retained as the behavioral reference for the
  // class-indexed version below.
  void EstimateConfidenceReference(CellRun& run,
                                   std::vector<double>& cell_conf,
                                   const std::vector<bool>& pinned) const {
    const int num_fds = run.graph.NumFds();
    const int num_cells = run.graph.NumCells();
    std::vector<double> next_fd(static_cast<size_t>(num_fds), 0.0);
    for (int iter = 0; iter < options_.sums_max_iterations; ++iter) {
      double max_delta = 0.0;
      // FD side.
      double max_fd = 0.0;
      for (FdId f = 0; f < num_fds; ++f) {
        next_fd[static_cast<size_t>(f)] = 0.0;
        if (!run.graph.FdActive(f)) continue;
        double sum = 0.0;
        int count = 0;
        for (CellId c : run.graph.CellsOfFd(f)) {
          if (!run.graph.CellActive(c)) continue;
          sum += cell_conf[static_cast<size_t>(c)];
          ++count;
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
                                      run.fd_conf[static_cast<size_t>(f)]));
      }
      run.fd_conf.swap(next_fd);

      // Violation side.
      double max_cell = 0.0;
      for (CellId c = 0; c < num_cells; ++c) {
        if (!run.graph.CellActive(c) || pinned[static_cast<size_t>(c)]) {
          continue;
        }
        double sum = 0.0;
        for (FdId f : run.graph.FdsOfCell(c)) {
          if (run.graph.FdActive(f)) {
            sum += run.fd_conf[static_cast<size_t>(f)];
          }
        }
        cell_conf[static_cast<size_t>(c)] = sum;
        max_cell = std::max(max_cell, sum);
      }
      if (max_cell > 0.0) {
        for (CellId c = 0; c < num_cells; ++c) {
          if (!pinned[static_cast<size_t>(c)] && run.graph.CellActive(c)) {
            cell_conf[static_cast<size_t>(c)] /= max_cell;
          }
        }
      }

      if (max_delta < options_.sums_tolerance) break;
    }
  }

  // The same fixpoint over classes. The FD side walks CellsOfFd in CSR
  // order exactly as the reference does, adding each cell's value through
  // its slot: the class value while live, 1 when pinned, and +0.0 when
  // inactive, which leaves the non-negative sum bitwise unchanged; the
  // count is the FD's active degree, the number of cells the reference
  // counts. The cell side computes one sum per live class over the
  // class's ascending FD list — the operand sequence the reference
  // repeats for every member — so the max over live classes is the max
  // over live cells and every normalized value is bitwise the reference's.
  void EstimateConfidenceClasses(CellRun& run, const CellClasses& classes,
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
    state.live.clear();
    for (int k = 0; k < classes.NumClasses(); ++k) {
      if (has_live[static_cast<size_t>(k)]) state.live.push_back(k);
    }

    std::vector<double> next_fd(static_cast<size_t>(num_fds), 0.0);
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
                                      run.fd_conf[static_cast<size_t>(f)]));
      }
      run.fd_conf.swap(next_fd);

      // Violation side, once per live class.
      double max_cell = 0.0;
      for (int k : state.live) {
        double sum = 0.0;
        for (FdId f : classes.Fds(k)) {
          if (run.graph.FdActive(f)) {
            sum += run.fd_conf[static_cast<size_t>(f)];
          }
        }
        state.conf[static_cast<size_t>(k)] = sum;
        max_cell = std::max(max_cell, sum);
      }
      if (max_cell > 0.0) {
        for (int k : state.live) state.conf[static_cast<size_t>(k)] /= max_cell;
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
