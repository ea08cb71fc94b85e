#include "reference/cell_rescan.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fd/closure.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_artifact.h"

namespace uguide {

namespace {

// One run's state: the shared (or a private) artifact's graph under a
// mutable GraphView, the FD confidences and the asked flags.
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

// Asks `c` and charges one cell question.
Answer Ask(const QuestionContext& ctx, const CellRun& run, CellId c,
           StrategyResult& result) {
  result.cost_spent += ctx.cost.CellCost();
  ++result.questions_asked;
  return ctx.expert->IsCellErroneous(run.graph.cell(c));
}

class RescanCellQHittingSet : public Strategy {
 public:
  explicit RescanCellQHittingSet(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-HS"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    while (result.cost_spent + cost <= ctx.budget) {
      CellId best = -1;
      double best_score = 0.0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        const double score =
            run.CellWeight(c) / run.graph.ActiveDegreeOfCell(c);
        if (best < 0 || score < best_score) {
          best = c;
          best_score = score;
        }
      }
      if (best < 0) break;
      const Answer answer = Ask(ctx, run, best, result);
      ApplyAnswer(run, best, answer, options_.delta, run.fd_conf);
    }
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

class RescanCellQGreedy : public Strategy {
 public:
  explicit RescanCellQGreedy(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-Greedy"; }

  StrategyResult Run(const QuestionContext& ctx) override {
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
      const Answer answer = Ask(ctx, run, best, result);
      ApplyAnswer(run, best, answer, options_.delta, run.fd_conf);
    }
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

class RescanCellQSums : public Strategy {
 public:
  explicit RescanCellQSums(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-SUMS"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    std::vector<double> cell_conf(static_cast<size_t>(run.graph.NumCells()),
                                  1.0);
    // Cells the expert confirmed as violations are pinned at confidence 1
    // and keep feeding evidence into Estimate-Confidence.
    std::vector<bool> pinned(static_cast<size_t>(run.graph.NumCells()), false);
    // Evidence confidence, separate from the Estimate-Confidence fixpoint
    // scores in run.fd_conf: acceptance follows the same confirmed-
    // violation mechanism as Algorithm 2, while the fixpoint drives
    // question selection.
    std::vector<double> evidence(static_cast<size_t>(run.graph.NumFds()),
                                 options_.initial_confidence);
    EstimateConfidence(run, cell_conf, pinned);
    int answers_since_estimate = 0;
    while (result.cost_spent + cost <= ctx.budget) {
      CellId best = -1;
      double best_score = 0.0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        const double score = Score(run, c, cell_conf, evidence);
        if (score > best_score) {
          best = c;
          best_score = score;
        }
      }
      if (best < 0) {
        // No confirmation can add evidence anymore; spend leftover budget
        // hunting false positives instead: ask the least trusted violation,
        // whose "no" answer invalidates its flagging FDs.
        double lowest = 2.0;
        for (CellId c = 0; c < run.graph.NumCells(); ++c) {
          if (!run.Askable(c)) continue;
          if (cell_conf[static_cast<size_t>(c)] < lowest) {
            best = c;
            lowest = cell_conf[static_cast<size_t>(c)];
          }
        }
      }
      if (best < 0) break;
      const Answer answer = Ask(ctx, run, best, result);
      ApplyAnswer(run, best, answer, options_.delta, evidence);
      if (answer == Answer::kIdk) continue;  // no new evidence; re-select
      if (answer == Answer::kYes) {
        pinned[static_cast<size_t>(best)] = true;
        cell_conf[static_cast<size_t>(best)] = 1.0;
      }
      // The fixpoint moves little per answer; recompute in batches.
      if (++answers_since_estimate >= options_.sums_recompute_interval) {
        EstimateConfidence(run, cell_conf, pinned);
        answers_since_estimate = 0;
      }
    }
    result.accepted_fds = run.Accept(evidence, options_.sums_accept_threshold);
    return result;
  }

 private:
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
  void EstimateConfidence(CellRun& run, std::vector<double>& cell_conf,
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

  CellStrategyOptions options_;
};

class RescanCellQOracle : public Strategy {
 public:
  explicit RescanCellQOracle(const CellStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "CellQ-Oracle"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    UGUIDE_CHECK(ctx.true_violations != nullptr && ctx.true_fds != nullptr)
        << "CellQ-Oracle requires the true violation set and true FDs";
    CellRun run(ctx, options_);
    StrategyResult result;
    const double cost = ctx.cost.CellCost();
    ClosureEngine true_closure(*ctx.true_fds);
    std::vector<bool> is_true_fd(static_cast<size_t>(run.graph.NumFds()));
    for (FdId f = 0; f < run.graph.NumFds(); ++f) {
      is_true_fd[static_cast<size_t>(f)] =
          true_closure.Implies(run.graph.fd(f));
    }
    while (result.cost_spent + cost <= ctx.budget) {
      CellId best = -1;
      double best_payoff = 0.0;
      for (CellId c = 0; c < run.graph.NumCells(); ++c) {
        if (!run.Askable(c)) continue;
        const bool is_violation =
            ctx.true_violations->Contains(run.graph.cell(c));
        double payoff = 0.0;
        for (FdId f : run.graph.FdsOfCell(c)) {
          if (!run.graph.FdActive(f)) continue;
          const bool is_true = is_true_fd[static_cast<size_t>(f)];
          if (!is_violation) {
            payoff += is_true ? 0.0 : 1.0;
          } else if (is_true && run.fd_conf[static_cast<size_t>(f)] <
                                    options_.accept_threshold) {
            payoff += 1.0;
          }
        }
        if (payoff > best_payoff) {
          best = c;
          best_payoff = payoff;
        }
      }
      if (best < 0) break;
      const Answer answer = Ask(ctx, run, best, result);
      ApplyAnswer(run, best, answer, options_.delta, run.fd_conf);
    }
    result.accepted_fds = run.Accept(run.fd_conf, options_.accept_threshold);
    return result;
  }

 private:
  CellStrategyOptions options_;
};

}  // namespace

std::unique_ptr<Strategy> MakeRescanCellQHittingSet(
    const CellStrategyOptions& options) {
  return std::make_unique<RescanCellQHittingSet>(options);
}

std::unique_ptr<Strategy> MakeRescanCellQGreedy(
    const CellStrategyOptions& options) {
  return std::make_unique<RescanCellQGreedy>(options);
}

std::unique_ptr<Strategy> MakeRescanCellQSums(
    const CellStrategyOptions& options) {
  return std::make_unique<RescanCellQSums>(options);
}

std::unique_ptr<Strategy> MakeRescanCellQOracle(
    const CellStrategyOptions& options) {
  return std::make_unique<RescanCellQOracle>(options);
}

}  // namespace uguide
