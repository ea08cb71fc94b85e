#include "core/fd_strategies.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/id_bitmap.h"
#include "fd/closure.h"
#include "violations/violation_artifact.h"

namespace uguide {

namespace {

// One askable FD question, priced with the run's CostModel. Question i <
// pool.NumCandidates() is graph FD i; the rest are the pool's merged
// questions in order.
struct FdQuestion {
  Fd fd;
  size_t removal_count = 0;  // |g3 removal set| (for the accuracy prior)
  double cost = 1.0;
  size_t uncovered = 0;      // cells no accepted FD has covered yet
  bool asked = false;
};

// The run's view of the artifact's question pool: every candidate FD,
// plus (optionally) the first max_merged_candidates merged same-RHS pairs
// as non-minimal questions (§5's AB -> C example).
struct FdQuestions {
  const ViolationGraph* graph = nullptr;
  std::shared_ptr<const FdQuestionPool> pool;
  int num_merged = 0;
  std::vector<FdQuestion> questions;

  ConstSpan<CellId> CellsOf(size_t i) const {
    const int candidates = pool->NumCandidates();
    return i < static_cast<size_t>(candidates)
               ? graph->CellsOfFd(static_cast<FdId>(i))
               : pool->CellsOfMerged(static_cast<int>(i) - candidates);
  }
};

FdQuestions BuildQuestions(const QuestionContext& ctx,
                           const FdStrategyOptions& options) {
  const ViolationArtifact& artifact = RequireArtifact(ctx);
  const ViolationGraph& graph = artifact.graph();
  const std::vector<Fd>& base = ctx.candidates->fds();
  UGUIDE_CHECK_EQ(static_cast<size_t>(graph.NumFds()), base.size())
      << "artifact built over a different candidate set";
  FdQuestions out;
  out.graph = &graph;
  const int max_merged = options.allow_non_minimal
                             ? std::max(0, options.max_merged_candidates)
                             : 0;
  out.pool = artifact.FdQuestions(max_merged);
  out.num_merged = std::min(max_merged, out.pool->NumMerged());
  out.questions.reserve(base.size() + static_cast<size_t>(out.num_merged));
  for (FdId f = 0; f < graph.NumFds(); ++f) {
    FdQuestion q;
    q.fd = base[static_cast<size_t>(f)];
    UGUIDE_CHECK(graph.fd(f) == q.fd)
        << "artifact built over a different candidate set";
    q.removal_count = artifact.RemovalCount(f);
    q.cost = ctx.cost.FdCost(q.fd, out.pool->CandidateExtraAttributes(f));
    q.uncovered = graph.CellsOfFd(f).size();
    out.questions.push_back(q);
  }
  for (int m = 0; m < out.num_merged; ++m) {
    FdQuestion q;
    q.fd = out.pool->merged_fd(m);
    q.removal_count = out.pool->MergedRemovalCount(m);
    q.cost = ctx.cost.FdCost(q.fd, out.pool->MergedExtraAttributes(m));
    q.uncovered = out.pool->CellsOfMerged(m).size();
    out.questions.push_back(q);
  }
  return out;
}

// Shared driver: the three FD strategies differ only in eligibility and
// scoring. Each round scans the questions in order and asks the
// eligible, affordable one with the highest score (strict >: ties keep
// the first).
template <typename EligibleFn, typename ScoreFn>
StrategyResult RunFdLoop(const QuestionContext& ctx, FdQuestions& run,
                         EligibleFn eligible, ScoreFn score) {
  StrategyResult result;
  std::vector<FdQuestion>& questions = run.questions;
  const ViolationGraph& graph = *run.graph;
  const size_t num_candidates = static_cast<size_t>(graph.NumFds());
  // Coverage is keyed by graph CellId: every question's cells are graph
  // nodes, and distinct cells have distinct ids.
  IdBitmap covered(graph.NumCells());
  for (;;) {
    const double remaining = ctx.budget - result.cost_spent;
    int best = -1;
    double best_score = 0.0;
    for (size_t i = 0; i < questions.size(); ++i) {
      const FdQuestion& q = questions[i];
      if (q.asked || q.cost > remaining || !eligible(i)) continue;
      if (q.uncovered == 0) continue;  // nothing new to gain
      const double s = score(q);
      if (best < 0 || s > best_score) {
        best = static_cast<int>(i);
        best_score = s;
      }
    }
    if (best < 0) break;
    FdQuestion& q = questions[static_cast<size_t>(best)];
    q.asked = true;
    result.cost_spent += q.cost;
    ++result.questions_asked;
    const Answer answer = ctx.expert->IsFdValid(q.fd);
    if (answer == Answer::kYes) {
      result.accepted_fds.Add(q.fd);
      // A cell covered for the first time leaves every question holding
      // it: the candidates flagging it and the run's merged questions.
      for (CellId c : run.CellsOf(static_cast<size_t>(best))) {
        if (covered.Test(c)) continue;
        covered.Set(c);
        for (FdId f : graph.FdsOfCell(c)) {
          --questions[static_cast<size_t>(f)].uncovered;
        }
        for (int m : run.pool->MergedOfCell(c)) {
          if (m >= run.num_merged) break;
          --questions[num_candidates + static_cast<size_t>(m)].uncovered;
        }
      }
    }
    // "no" discards the FD (asked = true suffices); "I don't know" likewise
    // leaves the question unanswered -- merged/non-minimal variants of the
    // same FD remain in the pool and can recover the coverage at a higher
    // price (§7.2.6).
  }
  return result;
}

class FdQBudgetedMaxCoverage : public Strategy {
 public:
  explicit FdQBudgetedMaxCoverage(const FdStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "FDQ-BMC"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    FdQuestions questions = BuildQuestions(ctx, options_);
    const double n = std::max<double>(1.0, ctx.dirty->NumRows());
    // Budgeted max coverage: weight of uncovered violations, discounted by
    // an accuracy prior (AFDs whose g3 removal share approaches the
    // relaxation threshold are likelier to be false positives), normalized
    // by question cost.
    return RunFdLoop(
        ctx, questions, [](size_t) { return true; },
        [&](const FdQuestion& q) {
          const double prior =
              1.0 - static_cast<double>(q.removal_count) / n;
          return prior * static_cast<double>(q.uncovered) / q.cost;
        });
  }

 private:
  FdStrategyOptions options_;
};

class FdQGreedy : public Strategy {
 public:
  explicit FdQGreedy(const FdStrategyOptions& options) : options_(options) {}

  std::string_view name() const override { return "FDQ-Greedy"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    FdStrategyOptions minimal_only = options_;
    minimal_only.allow_non_minimal = false;
    FdQuestions questions = BuildQuestions(ctx, minimal_only);
    return RunFdLoop(ctx, questions, [](size_t) { return true; },
                     [](const FdQuestion& q) {
                       return static_cast<double>(q.uncovered);
                     });
  }

 private:
  FdStrategyOptions options_;
};

class FdQOracle : public Strategy {
 public:
  explicit FdQOracle(const FdStrategyOptions& options) : options_(options) {}

  std::string_view name() const override { return "FDQ-Oracle"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    UGUIDE_CHECK(ctx.true_fds != nullptr)
        << "FDQ-Oracle requires the true FD set";
    FdQuestions questions = BuildQuestions(ctx, options_);
    // The oracle pre-screens validity against the true FD set and never
    // spends budget on an invalid FD.
    ClosureEngine true_closure(*ctx.true_fds);
    std::vector<bool> valid(questions.questions.size());
    for (size_t i = 0; i < valid.size(); ++i) {
      valid[i] = true_closure.Implies(questions.questions[i].fd);
    }
    return RunFdLoop(ctx, questions, [&](size_t i) { return valid[i]; },
                     [](const FdQuestion& q) {
                       return static_cast<double>(q.uncovered) / q.cost;
                     });
  }

 private:
  FdStrategyOptions options_;
};

}  // namespace

std::unique_ptr<Strategy> MakeFdQBudgetedMaxCoverage(
    const FdStrategyOptions& options) {
  return std::make_unique<FdQBudgetedMaxCoverage>(options);
}

std::unique_ptr<Strategy> MakeFdQGreedy(const FdStrategyOptions& options) {
  return std::make_unique<FdQGreedy>(options);
}

std::unique_ptr<Strategy> MakeFdQOracle(const FdStrategyOptions& options) {
  return std::make_unique<FdQOracle>(options);
}

}  // namespace uguide
