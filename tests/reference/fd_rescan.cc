#include "reference/fd_rescan.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>
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

// Each Next scans the questions in order and asks the eligible,
// affordable one with the highest score (strict >: ties keep the first).
// A question's uncovered count is recounted from its cell list whenever
// an FD was accepted since its last count.
class RescanFdSteps : public StrategyRun {
 public:
  RescanFdSteps(const QuestionContext& ctx, const FdStrategyOptions& options)
      : questions_(BuildQuestions(ctx, *ctx.artifact, options)),
        budget_(ctx.budget),
        graph_(ctx.artifact->graph()),
        covered_(graph_.NumCells()),
        uncovered_cache_(questions_.size()),
        cache_epoch_(questions_.size(), 0) {
    for (size_t i = 0; i < questions_.size(); ++i) {
      uncovered_cache_[i] = CellsOf(questions_[i], graph_).size();
    }
  }

  std::optional<Question> Next() override {
    const double remaining = budget_ - result_.cost_spent;
    int best = -1;
    double best_score = 0.0;
    for (size_t i = 0; i < questions_.size(); ++i) {
      FdQuestion& q = questions_[i];
      if (q.asked || q.cost > remaining || !Eligible(i)) continue;
      if (cache_epoch_[i] != covered_epoch_) {
        uncovered_cache_[i] = CountUncovered(CellsOf(q, graph_), covered_);
        cache_epoch_[i] = covered_epoch_;
      }
      const size_t uncovered = uncovered_cache_[i];
      if (uncovered == 0) continue;
      const double s = Score(q, uncovered);
      if (best < 0 || s > best_score) {
        best = static_cast<int>(i);
        best_score = s;
      }
    }
    if (best < 0) return std::nullopt;
    asked_ = static_cast<size_t>(best);
    FdQuestion& q = questions_[asked_];
    q.asked = true;
    result_.cost_spent += q.cost;
    ++result_.questions_asked;
    return Question{.kind = QuestionKind::kFd, .fd = q.fd, .cost = q.cost};
  }

  void Apply(Answer answer) override {
    if (answer != Answer::kYes) return;
    const FdQuestion& q = questions_[asked_];
    result_.accepted_fds.Add(q.fd);
    for (CellId c : CellsOf(q, graph_)) covered_.Set(c);
    ++covered_epoch_;
  }

  StrategyResult Finish() override { return result_; }

 protected:
  virtual bool Eligible(size_t) const { return true; }
  virtual double Score(const FdQuestion& q, size_t uncovered) const = 0;

  std::vector<FdQuestion> questions_;

 private:
  const double budget_;
  const ViolationGraph& graph_;
  IdBitmap covered_;
  std::vector<size_t> uncovered_cache_;
  std::vector<uint32_t> cache_epoch_;
  uint32_t covered_epoch_ = 0;
  size_t asked_ = 0;
  StrategyResult result_;
};

class BmcSteps : public RescanFdSteps {
 public:
  BmcSteps(const QuestionContext& ctx, const FdStrategyOptions& options)
      : RescanFdSteps(ctx, options),
        n_(std::max<double>(1.0, ctx.dirty->NumRows())) {}

 protected:
  double Score(const FdQuestion& q, size_t uncovered) const override {
    const double prior = 1.0 - static_cast<double>(q.removal_count) / n_;
    return prior * static_cast<double>(uncovered) / q.cost;
  }

 private:
  const double n_;
};

class GreedySteps : public RescanFdSteps {
 public:
  GreedySteps(const QuestionContext& ctx, const FdStrategyOptions& options)
      : RescanFdSteps(ctx, MinimalOnly(options)) {}

 protected:
  double Score(const FdQuestion&, size_t uncovered) const override {
    return static_cast<double>(uncovered);
  }

 private:
  static FdStrategyOptions MinimalOnly(FdStrategyOptions options) {
    options.allow_non_minimal = false;
    return options;
  }
};

class OracleSteps : public RescanFdSteps {
 public:
  OracleSteps(const QuestionContext& ctx, const FdStrategyOptions& options)
      : RescanFdSteps(ctx, options), valid_(questions_.size()) {
    UGUIDE_CHECK(ctx.true_fds != nullptr)
        << "FDQ-Oracle requires the true FD set";
    ClosureEngine true_closure(*ctx.true_fds);
    for (size_t i = 0; i < questions_.size(); ++i) {
      valid_[i] = true_closure.Implies(questions_[i].fd);
    }
  }

 protected:
  bool Eligible(size_t i) const override { return valid_[i]; }
  double Score(const FdQuestion& q, size_t uncovered) const override {
    return static_cast<double>(uncovered) / q.cost;
  }

 private:
  std::vector<bool> valid_;
};

}  // namespace

std::unique_ptr<Strategy> MakeRescanFdQBudgetedMaxCoverage(
    const FdStrategyOptions& options) {
  return MakeStepsStrategy<BmcSteps>("FDQ-BMC", options);
}

std::unique_ptr<Strategy> MakeRescanFdQGreedy(
    const FdStrategyOptions& options) {
  return MakeStepsStrategy<GreedySteps>("FDQ-Greedy", options);
}

std::unique_ptr<Strategy> MakeRescanFdQOracle(
    const FdStrategyOptions& options) {
  return MakeStepsStrategy<OracleSteps>("FDQ-Oracle", options);
}

}  // namespace uguide
