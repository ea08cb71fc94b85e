#include "core/fd_strategies.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
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

// Shared steps: the three FD strategies differ only in eligibility and
// scoring. Each Next scans the questions in order and asks the eligible,
// affordable one with the highest score (strict >: ties keep the first).
class FdSteps : public StrategyRun {
 public:
  FdSteps(const QuestionContext& ctx, const FdStrategyOptions& options)
      : run_(BuildQuestions(ctx, options)),
        budget_(ctx.budget),
        // Coverage is keyed by graph CellId: every question's cells are
        // graph nodes, and distinct cells have distinct ids.
        covered_(run_.graph->NumCells()) {}

  std::optional<Question> Next() override {
    const std::vector<FdQuestion>& questions = run_.questions;
    const double remaining = budget_ - result_.cost_spent;
    int best = -1;
    double best_score = 0.0;
    for (size_t i = 0; i < questions.size(); ++i) {
      const FdQuestion& q = questions[i];
      if (q.asked || q.cost > remaining || !Eligible(i)) continue;
      if (q.uncovered == 0) continue;  // nothing new to gain
      const double s = Score(q);
      if (best < 0 || s > best_score) {
        best = static_cast<int>(i);
        best_score = s;
      }
    }
    if (best < 0) return std::nullopt;
    asked_ = static_cast<size_t>(best);
    FdQuestion& q = run_.questions[asked_];
    q.asked = true;
    result_.cost_spent += q.cost;
    ++result_.questions_asked;
    return Question{.kind = QuestionKind::kFd, .fd = q.fd, .cost = q.cost};
  }

  void Apply(Answer answer) override {
    // "no" discards the FD (asked = true suffices); "I don't know"
    // likewise leaves the question unanswered -- merged/non-minimal
    // variants of the same FD remain in the pool and can recover the
    // coverage at a higher price (§7.2.6).
    if (answer != Answer::kYes) return;
    std::vector<FdQuestion>& questions = run_.questions;
    const ViolationGraph& graph = *run_.graph;
    const size_t num_candidates = static_cast<size_t>(graph.NumFds());
    result_.accepted_fds.Add(questions[asked_].fd);
    // A cell covered for the first time leaves every question holding
    // it: the candidates flagging it and the run's merged questions.
    for (CellId c : run_.CellsOf(asked_)) {
      if (covered_.Test(c)) continue;
      covered_.Set(c);
      for (FdId f : graph.FdsOfCell(c)) {
        --questions[static_cast<size_t>(f)].uncovered;
      }
      for (int m : run_.pool->MergedOfCell(c)) {
        if (m >= run_.num_merged) break;
        --questions[num_candidates + static_cast<size_t>(m)].uncovered;
      }
    }
  }

  StrategyResult Finish() override { return std::move(result_); }

 protected:
  virtual bool Eligible(size_t) const { return true; }
  virtual double Score(const FdQuestion& q) const = 0;

  FdQuestions run_;

 private:
  const double budget_;
  IdBitmap covered_;
  size_t asked_ = 0;
  StrategyResult result_;
};

class BmcSteps : public FdSteps {
 public:
  BmcSteps(const QuestionContext& ctx, const FdStrategyOptions& options)
      : FdSteps(ctx, options),
        n_(std::max<double>(1.0, ctx.dirty->NumRows())) {}

 protected:
  // Budgeted max coverage: weight of uncovered violations, discounted by
  // an accuracy prior (AFDs whose g3 removal share approaches the
  // relaxation threshold are likelier to be false positives), normalized
  // by question cost.
  double Score(const FdQuestion& q) const override {
    const double prior = 1.0 - static_cast<double>(q.removal_count) / n_;
    return prior * static_cast<double>(q.uncovered) / q.cost;
  }

 private:
  const double n_;
};

class FdGreedySteps : public FdSteps {
 public:
  FdGreedySteps(const QuestionContext& ctx, const FdStrategyOptions& options)
      : FdSteps(ctx, MinimalOnly(options)) {}

 protected:
  double Score(const FdQuestion& q) const override {
    return static_cast<double>(q.uncovered);
  }

 private:
  static FdStrategyOptions MinimalOnly(FdStrategyOptions options) {
    options.allow_non_minimal = false;
    return options;
  }
};

class FdOracleSteps : public FdSteps {
 public:
  FdOracleSteps(const QuestionContext& ctx, const FdStrategyOptions& options)
      : FdSteps(ctx, options), valid_(Valid(ctx, run_)) {}

 protected:
  bool Eligible(size_t i) const override { return valid_[i]; }
  double Score(const FdQuestion& q) const override {
    return static_cast<double>(q.uncovered) / q.cost;
  }

 private:
  // The oracle pre-screens validity against the true FD set and never
  // spends budget on an invalid FD.
  static std::vector<bool> Valid(const QuestionContext& ctx,
                                 const FdQuestions& run) {
    UGUIDE_CHECK(ctx.true_fds != nullptr)
        << "FDQ-Oracle requires the true FD set";
    ClosureEngine true_closure(*ctx.true_fds);
    std::vector<bool> valid(run.questions.size());
    for (size_t i = 0; i < valid.size(); ++i) {
      valid[i] = true_closure.Implies(run.questions[i].fd);
    }
    return valid;
  }

  const std::vector<bool> valid_;
};

}  // namespace

std::unique_ptr<Strategy> MakeFdQBudgetedMaxCoverage(
    const FdStrategyOptions& options) {
  return MakeStepsStrategy<BmcSteps>("FDQ-BMC", options);
}

std::unique_ptr<Strategy> MakeFdQGreedy(const FdStrategyOptions& options) {
  return MakeStepsStrategy<FdGreedySteps>("FDQ-Greedy", options);
}

std::unique_ptr<Strategy> MakeFdQOracle(const FdStrategyOptions& options) {
  return MakeStepsStrategy<FdOracleSteps>("FDQ-Oracle", options);
}

}  // namespace uguide
