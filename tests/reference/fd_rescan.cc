#include "reference/fd_rescan.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/id_bitmap.h"
#include "fd/closure.h"
#include "violations/violation_artifact.h"

namespace uguide {

namespace {

// One askable FD question. A candidate's violation cells are its graph
// node's CellsOfFd; a merged question keeps its own list of graph CellIds.
struct FdQuestion {
  Fd fd;
  FdId node = -1;                // candidate: its graph FD; merged: -1
  std::vector<CellId> merged;    // merged: its violation cells
  size_t removal_count = 0;      // |g3 removal set| (for the accuracy prior)
  double cost = 1.0;
  bool asked = false;
};

ConstSpan<CellId> CellsOf(const FdQuestion& q, const ViolationGraph& graph) {
  return q.node >= 0 ? graph.CellsOfFd(q.node) : ConstSpan<CellId>(q.merged);
}

// Every candidate FD, plus (optionally) the first max_merged_candidates
// merged same-RHS pairs, in (i, j) order. Merged questions query the
// engine for their violating rows and removal counts on every run.
std::vector<FdQuestion> BuildQuestions(const QuestionContext& ctx,
                                       const ViolationArtifact& artifact,
                                       const FdStrategyOptions& options) {
  const ViolationGraph& graph = artifact.graph();
  const std::vector<Fd>& base = ctx.candidates->fds();
  std::vector<FdQuestion> questions;
  std::unordered_set<Fd, FdHash> known;
  for (FdId f = 0; f < graph.NumFds(); ++f) {
    FdQuestion q;
    q.fd = base[static_cast<size_t>(f)];
    q.node = f;
    q.removal_count = artifact.RemovalCount(f);
    q.cost = ctx.cost.FdCost(q.fd,
                             CostModel::ExtraAttributes(q.fd, *ctx.candidates));
    known.insert(q.fd);
    questions.push_back(std::move(q));
  }
  if (!options.allow_non_minimal) return questions;
  ViolationEngine& engine = artifact.engine();
  int merged_count = 0;
  for (size_t i = 0;
       i < base.size() && merged_count < options.max_merged_candidates; ++i) {
    for (size_t j = i + 1;
         j < base.size() && merged_count < options.max_merged_candidates;
         ++j) {
      if (base[i].rhs != base[j].rhs) continue;
      Fd merged(base[i].lhs.Union(base[j].lhs), base[i].rhs);
      if (!merged.IsValidShape() || known.contains(merged)) continue;
      known.insert(merged);
      FdQuestion q;
      q.fd = merged;
      for (TupleId row : engine.ViolatingTuplesUnordered(merged)) {
        const CellId c = graph.FindCell(Cell{row, merged.rhs});
        UGUIDE_CHECK(c >= 0) << "merged question flags a non-graph cell";
        q.merged.push_back(c);
      }
      q.removal_count = engine.G3RemovalCount(merged);
      q.cost = ctx.cost.FdCost(
          merged, CostModel::ExtraAttributes(merged, *ctx.candidates));
      questions.push_back(std::move(q));
      ++merged_count;
    }
  }
  return questions;
}

size_t CountUncovered(ConstSpan<CellId> cells, const IdBitmap& covered) {
  size_t uncovered = 0;
  for (CellId c : cells) {
    if (!covered.Test(c)) ++uncovered;
  }
  return uncovered;
}

// Each round scans the questions in order and asks the eligible,
// affordable one with the highest score (strict >: ties keep the first).
// A question's uncovered count is recounted from its cell list whenever
// an FD was accepted since its last count.
template <typename EligibleFn, typename ScoreFn>
StrategyResult RunFdLoop(const QuestionContext& ctx,
                         const ViolationGraph& graph,
                         std::vector<FdQuestion>& questions,
                         EligibleFn eligible, ScoreFn score) {
  StrategyResult result;
  IdBitmap covered(graph.NumCells());
  std::vector<size_t> uncovered_cache(questions.size());
  for (size_t i = 0; i < questions.size(); ++i) {
    uncovered_cache[i] = CellsOf(questions[i], graph).size();
  }
  std::vector<uint32_t> cache_epoch(questions.size(), 0);
  uint32_t covered_epoch = 0;
  for (;;) {
    const double remaining = ctx.budget - result.cost_spent;
    int best = -1;
    double best_score = 0.0;
    for (size_t i = 0; i < questions.size(); ++i) {
      FdQuestion& q = questions[i];
      if (q.asked || q.cost > remaining || !eligible(i)) continue;
      if (cache_epoch[i] != covered_epoch) {
        uncovered_cache[i] = CountUncovered(CellsOf(q, graph), covered);
        cache_epoch[i] = covered_epoch;
      }
      const size_t uncovered = uncovered_cache[i];
      if (uncovered == 0) continue;
      const double s = score(q, uncovered);
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
    if (ctx.expert->IsFdValid(q.fd) == Answer::kYes) {
      result.accepted_fds.Add(q.fd);
      for (CellId c : CellsOf(q, graph)) covered.Set(c);
      ++covered_epoch;
    }
  }
  return result;
}

class RescanFdQBudgetedMaxCoverage : public Strategy {
 public:
  explicit RescanFdQBudgetedMaxCoverage(const FdStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "FDQ-BMC"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    ArtifactRef artifact(ctx.artifact, ctx.dirty, *ctx.candidates, ctx.pool);
    std::vector<FdQuestion> questions =
        BuildQuestions(ctx, *artifact, options_);
    const double n = std::max<double>(1.0, ctx.dirty->NumRows());
    return RunFdLoop(
        ctx, artifact->graph(), questions, [](size_t) { return true; },
        [&](const FdQuestion& q, size_t uncovered) {
          const double prior =
              1.0 - static_cast<double>(q.removal_count) / n;
          return prior * static_cast<double>(uncovered) / q.cost;
        });
  }

 private:
  FdStrategyOptions options_;
};

class RescanFdQGreedy : public Strategy {
 public:
  explicit RescanFdQGreedy(const FdStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "FDQ-Greedy"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    FdStrategyOptions minimal_only = options_;
    minimal_only.allow_non_minimal = false;
    ArtifactRef artifact(ctx.artifact, ctx.dirty, *ctx.candidates, ctx.pool);
    std::vector<FdQuestion> questions =
        BuildQuestions(ctx, *artifact, minimal_only);
    return RunFdLoop(ctx, artifact->graph(), questions,
                     [](size_t) { return true; },
                     [](const FdQuestion&, size_t uncovered) {
                       return static_cast<double>(uncovered);
                     });
  }

 private:
  FdStrategyOptions options_;
};

class RescanFdQOracle : public Strategy {
 public:
  explicit RescanFdQOracle(const FdStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "FDQ-Oracle"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    UGUIDE_CHECK(ctx.true_fds != nullptr)
        << "FDQ-Oracle requires the true FD set";
    ArtifactRef artifact(ctx.artifact, ctx.dirty, *ctx.candidates, ctx.pool);
    std::vector<FdQuestion> questions =
        BuildQuestions(ctx, *artifact, options_);
    ClosureEngine true_closure(*ctx.true_fds);
    std::vector<bool> valid(questions.size());
    for (size_t i = 0; i < questions.size(); ++i) {
      valid[i] = true_closure.Implies(questions[i].fd);
    }
    return RunFdLoop(ctx, artifact->graph(), questions,
                     [&](size_t i) { return static_cast<bool>(valid[i]); },
                     [](const FdQuestion& q, size_t uncovered) {
                       return static_cast<double>(uncovered) / q.cost;
                     });
  }

 private:
  FdStrategyOptions options_;
};

}  // namespace

std::unique_ptr<Strategy> MakeRescanFdQBudgetedMaxCoverage(
    const FdStrategyOptions& options) {
  return std::make_unique<RescanFdQBudgetedMaxCoverage>(options);
}

std::unique_ptr<Strategy> MakeRescanFdQGreedy(
    const FdStrategyOptions& options) {
  return std::make_unique<RescanFdQGreedy>(options);
}

std::unique_ptr<Strategy> MakeRescanFdQOracle(
    const FdStrategyOptions& options) {
  return std::make_unique<RescanFdQOracle>(options);
}

}  // namespace uguide
