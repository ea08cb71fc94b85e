#include "reference/cell_rescan.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "fd/closure.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_artifact.h"

namespace uguide {

namespace {

// One run's state: the context's artifact's graph under a
// mutable GraphView, the FD confidences and the asked flags.
struct CellRun {
  CellRun(const QuestionContext& ctx, const CellStrategyOptions& options)
      : artifact(*ctx.artifact),
        graph(artifact.graph()),
        fd_conf(static_cast<size_t>(graph.NumFds()),
                options.initial_confidence),
        asked(static_cast<size_t>(graph.NumCells()), false) {}

  const ViolationArtifact& artifact;
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

  // The active FDs whose confidence in `conf` reached `threshold`, in
  // FdId order.
  FdSet Accept(const std::vector<double>& conf, double threshold) const {
    FdSet accepted;
    for (FdId f = 0; f < graph.NumFds(); ++f) {
      if (graph.FdActive(f) && conf[static_cast<size_t>(f)] >= threshold) {
        accepted.Add(graph.fd(f));
      }
    }
    return accepted;
  }
};

// Algorithm 2's answer update: "yes" raises the confidence in `conf` of
// every active flagging FD (capped at 1), "no" invalidates them.
void ApplyAnswer(CellRun& run, CellId c, Answer answer, double delta,
                 std::vector<double>& conf) {
  run.asked[static_cast<size_t>(c)] = true;
  switch (answer) {
    case Answer::kYes:
      for (FdId f : run.graph.FdsOfCell(c)) {
        if (run.graph.FdActive(f)) {
          double& value = conf[static_cast<size_t>(f)];
          value = std::min(1.0, value + delta);
        }
      }
      break;
    case Answer::kNo: {
      // DeactivateFd changes the active flags the loop reads; collect first.
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

// The steps of a rescan run: Next picks with a full scan (Select) and
// charges one cell question; Apply makes Algorithm 2's update.
class RescanSteps : public StrategyRun {
 public:
  RescanSteps(const QuestionContext& ctx, const CellStrategyOptions& options)
      : run_(ctx, options), options_(options), ctx_(ctx) {}

  std::optional<Question> Next() override {
    const double cost = ctx_.cost.CellCost();
    if (result_.cost_spent + cost > ctx_.budget) return std::nullopt;
    asked_ = Select();
    if (asked_ < 0) return std::nullopt;
    result_.cost_spent += cost;
    ++result_.questions_asked;
    const Cell cell = run_.graph.cell(asked_);
    return Question{.kind = QuestionKind::kCell, .cell = cell, .cost = cost};
  }

  void Apply(Answer answer) override {
    ApplyAnswer(run_, asked_, answer, options_.delta, run_.fd_conf);
  }

  StrategyResult Finish() override {
    result_.accepted_fds = Accepted();
    return result_;
  }

 protected:
  // The askable cell to ask next, or -1.
  virtual CellId Select() = 0;
  virtual FdSet Accepted() const {
    return run_.Accept(run_.fd_conf, options_.accept_threshold);
  }

  CellRun run_;
  const CellStrategyOptions options_;
  const QuestionContext ctx_;
  CellId asked_ = -1;

 private:
  StrategyResult result_;
};

class HittingSetSteps : public RescanSteps {
 public:
  using RescanSteps::RescanSteps;

 protected:
  CellId Select() override {
    CellId best = -1;
    double best_score = 0.0;
    for (CellId c = 0; c < run_.graph.NumCells(); ++c) {
      if (!run_.Askable(c)) continue;
      const double score =
          run_.CellWeight(c) / run_.graph.ActiveDegreeOfCell(c);
      if (best < 0 || score < best_score) {
        best = c;
        best_score = score;
      }
    }
    return best;
  }
};

class GreedySteps : public RescanSteps {
 public:
  using RescanSteps::RescanSteps;

 protected:
  CellId Select() override {
    CellId best = -1;
    int best_degree = 0;
    for (CellId c = 0; c < run_.graph.NumCells(); ++c) {
      if (!run_.Askable(c)) continue;
      const int degree = run_.graph.ActiveDegreeOfCell(c);
      if (degree > best_degree) {
        best = c;
        best_degree = degree;
      }
    }
    return best;
  }
};

class SumsSteps : public RescanSteps {
 public:
  SumsSteps(const QuestionContext& ctx, const CellStrategyOptions& options)
      : RescanSteps(ctx, options),
        cell_conf_(static_cast<size_t>(run_.graph.NumCells()), 1.0),
        pinned_(static_cast<size_t>(run_.graph.NumCells()), false),
        evidence_(static_cast<size_t>(run_.graph.NumFds()),
                  options.initial_confidence) {
    EstimateConfidence(options_, run_, cell_conf_, pinned_);
  }

 protected:
  CellId Select() override {
    CellId best = -1;
    double best_score = 0.0;
    for (CellId c = 0; c < run_.graph.NumCells(); ++c) {
      if (!run_.Askable(c)) continue;
      const double score = Score(run_, c, cell_conf_, evidence_);
      if (score > best_score) {
        best = c;
        best_score = score;
      }
    }
    if (best < 0) {
      // No confirmation can add evidence anymore; spend leftover budget
      // hunting false positives instead: ask the least trusted
      // violation, whose "no" answer invalidates its flagging FDs.
      double lowest = 2.0;
      for (CellId c = 0; c < run_.graph.NumCells(); ++c) {
        if (!run_.Askable(c)) continue;
        if (cell_conf_[static_cast<size_t>(c)] < lowest) {
          best = c;
          lowest = cell_conf_[static_cast<size_t>(c)];
        }
      }
    }
    return best;
  }

  void Apply(Answer answer) override {
    ApplyAnswer(run_, asked_, answer, options_.delta, evidence_);
    if (answer == Answer::kIdk) return;  // no new evidence; re-select
    if (answer == Answer::kYes) {
      pinned_[static_cast<size_t>(asked_)] = true;
      cell_conf_[static_cast<size_t>(asked_)] = 1.0;
    }
    // The fixpoint moves little per answer; recompute in batches.
    if (++answers_since_estimate_ >= options_.sums_recompute_interval) {
      EstimateConfidence(options_, run_, cell_conf_, pinned_);
      answers_since_estimate_ = 0;
    }
  }

  FdSet Accepted() const override {
    return run_.Accept(evidence_, options_.sums_accept_threshold);
  }

 private:
  std::vector<double> cell_conf_;
  // Cells the expert confirmed as violations are pinned at confidence 1
  // and keep feeding evidence into Estimate-Confidence.
  std::vector<bool> pinned_;
  // Evidence confidence, separate from the Estimate-Confidence fixpoint
  // scores in run_.fd_conf: acceptance follows the same confirmed-
  // violation mechanism as Algorithm 2, while the fixpoint drives
  // question selection.
  std::vector<double> evidence_;
  int answers_since_estimate_ = 0;

  // Maximum information: confidence near 1/2, weighted by the evidence the
  // answer can still add to the cell's active flagging FDs.
  static double Score(const CellRun& run, CellId c,
                      const std::vector<double>& cell_conf,
                      const std::vector<double>& evidence) {
    const double conf = cell_conf[static_cast<size_t>(c)];
    const double uncertainty = 1.0 - std::abs(2.0 * conf - 1.0);
    double marginal = 0.0;
    for (FdId f : run.graph.FdsOfCell(c)) {
      if (run.graph.FdActive(f)) {
        marginal += 1.0 - evidence[static_cast<size_t>(f)];
      }
    }
    return (0.05 + uncertainty) * marginal;
  }

  // Algorithm 4: alternate confidence propagation between FDs and
  // violations until convergence. FD confidence = log-boosted average of
  // its violations' confidences; violation confidence = sum of its FDs'
  // confidences; both max-normalized each round. Pinned (expert-labelled)
  // cells keep their value.
  static void EstimateConfidence(const CellStrategyOptions& options,
                                 CellRun& run, std::vector<double>& cell_conf,
                                 const std::vector<bool>& pinned) {
    const int num_fds = run.graph.NumFds();
    const int num_cells = run.graph.NumCells();
    std::vector<double> next_fd(static_cast<size_t>(num_fds), 0.0);
    for (int iter = 0; iter < options.sums_max_iterations; ++iter) {
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

      if (max_delta < options.sums_tolerance) break;
    }
  }
};

class OracleSteps : public RescanSteps {
 public:
  OracleSteps(const QuestionContext& ctx, const CellStrategyOptions& options)
      : RescanSteps(ctx, options),
        is_true_fd_(static_cast<size_t>(run_.graph.NumFds())) {
    UGUIDE_CHECK(ctx.true_violations != nullptr && ctx.true_fds != nullptr)
        << "CellQ-Oracle requires the true violation set and true FDs";
    ClosureEngine true_closure(*ctx.true_fds);
    for (FdId f = 0; f < run_.graph.NumFds(); ++f) {
      is_true_fd_[static_cast<size_t>(f)] =
          true_closure.Implies(run_.graph.fd(f));
    }
  }

 protected:
  CellId Select() override {
    CellId best = -1;
    double best_payoff = 0.0;
    for (CellId c = 0; c < run_.graph.NumCells(); ++c) {
      if (!run_.Askable(c)) continue;
      const bool is_violation =
          ctx_.true_violations->Contains(run_.graph.cell(c));
      double payoff = 0.0;
      for (FdId f : run_.graph.FdsOfCell(c)) {
        if (!run_.graph.FdActive(f)) continue;
        const bool is_true = is_true_fd_[static_cast<size_t>(f)];
        if (!is_violation) {
          payoff += is_true ? 0.0 : 1.0;
        } else if (is_true && run_.fd_conf[static_cast<size_t>(f)] <
                                  options_.accept_threshold) {
          payoff += 1.0;
        }
      }
      if (payoff > best_payoff) {
        best = c;
        best_payoff = payoff;
      }
    }
    return best;
  }

 private:
  std::vector<bool> is_true_fd_;
};

}  // namespace

std::unique_ptr<Strategy> MakeRescanCellQHittingSet(
    const CellStrategyOptions& options) {
  return MakeStepsStrategy<HittingSetSteps>("CellQ-HS", options);
}

std::unique_ptr<Strategy> MakeRescanCellQGreedy(
    const CellStrategyOptions& options) {
  return MakeStepsStrategy<GreedySteps>("CellQ-Greedy", options);
}

std::unique_ptr<Strategy> MakeRescanCellQSums(
    const CellStrategyOptions& options) {
  return MakeStepsStrategy<SumsSteps>("CellQ-SUMS", options);
}

std::unique_ptr<Strategy> MakeRescanCellQOracle(
    const CellStrategyOptions& options) {
  return MakeStepsStrategy<OracleSteps>("CellQ-Oracle", options);
}

}  // namespace uguide
