#ifndef UGUIDE_CORE_STRATEGY_H_
#define UGUIDE_CORE_STRATEGY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/check.h"
#include "errorgen/error_generator.h"
#include "fd/fd.h"
#include "oracle/cost_model.h"
#include "oracle/expert.h"
#include "relation/relation.h"
#include "violations/true_violation_set.h"

namespace uguide {

class ViolationArtifact;

/// \brief Everything an interactive strategy needs for one run.
///
/// `true_violations` is only consulted by the hypothetical oracle
/// baselines of §7.1, which are allowed to peek at the ground truth; honest
/// strategies ignore it and may leave it null.
struct QuestionContext {
  const Relation* dirty = nullptr;
  const FdSet* candidates = nullptr;
  /// The expert Strategy::Run asks; a stepped run never reads it.
  Expert* expert = nullptr;
  CostModel cost;
  double budget = 0.0;

  /// The dataset's violation artifact over `dirty` and `candidates`:
  /// engine, frozen graph, cell classes, removal and per-tuple counts and
  /// the FD question pool, shared read-only by every run (a session
  /// passes its own, Session::artifact). Required.
  const ViolationArtifact* artifact = nullptr;

  /// Sigma_T, the exact FDs discovered on the dirty table. Required by the
  /// saturation-set tuple strategy (Alg. 8).
  const FdSet* exact_fds = nullptr;

  /// Sigma_TC, the FD set the simulated expert validates against (oracle
  /// baselines only -- they are allowed to peek, §7.1).
  const FdSet* true_fds = nullptr;

  /// E_T, the cells violating the true FDs (oracle baselines only).
  const TrueViolationSet* true_violations = nullptr;

  /// The error generator's ledger (oracle baselines only).
  const GroundTruth* injected = nullptr;
};

/// `*ctx.artifact`, which every strategy run reads; checked non-null.
inline const ViolationArtifact& RequireArtifact(const QuestionContext& ctx) {
  UGUIDE_CHECK(ctx.artifact != nullptr)
      << "QuestionContext::artifact is required";
  return *ctx.artifact;
}

/// Outcome of a strategy run.
struct StrategyResult {
  /// The FDs the strategy accepts as true; their violations on the dirty
  /// table are the reported error detections.
  FdSet accepted_fds;
  double cost_spent = 0.0;
  int questions_asked = 0;
};

/// \brief One question a strategy puts to the expert, with the cost the
/// strategy charges for it: CostModel::CellCost, TupleCost, or FdCost with
/// the asked FD's extra attributes.
struct Question {
  QuestionKind kind = QuestionKind::kCell;
  Cell cell{};      ///< kCell: the cell asked about.
  TupleId row = 0;  ///< kTuple: the tuple asked about.
  Fd fd{};          ///< kFd: the FD asked about.
  double cost = 0.0;
};

/// Asks `expert` the question: IsCellErroneous, IsTupleClean or IsFdValid
/// by `question.kind`.
Answer AskQuestion(Expert& expert, const Question& question);

/// \brief One run of a strategy, as the paper writes Algs. 2-8: select a
/// question, ask it, apply the answer, until the budget is spent.
///
/// The driver alternates Next and Apply: Next picks the next question and
/// charges its cost (or returns nullopt once the run is over), Apply feeds
/// the expert's answer to it back, and Finish, called once after Next
/// returned nullopt, returns the result. Who asks the expert, and when, is
/// the driver's business: Strategy::Run asks a blocking Expert inline, a
/// SessionStateMachine hands the question to a remote one.
class StrategyRun {
 public:
  virtual ~StrategyRun() = default;

  virtual std::optional<Question> Next() = 0;
  virtual void Apply(Answer answer) = 0;
  virtual StrategyResult Finish() = 0;
};

/// \brief Interface every question-selection strategy implements.
///
/// A strategy instance is stateless across runs: Start() may be called
/// repeatedly with different contexts (the benches sweep budgets this way),
/// and each run keeps its own state.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Short machine-friendly name, e.g. "CellQ-SUMS".
  virtual std::string_view name() const = 0;

  /// Sets up a run over `context`, whose pointees must outlive it.
  virtual std::unique_ptr<StrategyRun> Start(
      const QuestionContext& context) = 0;

  /// Runs the interactive loop against `context.expert` until the budget
  /// is exhausted (or no useful question remains) and returns the accepted
  /// FDs.
  StrategyResult Run(const QuestionContext& context);
};

/// \brief The strategy named `name` whose runs are `Steps(context,
/// options)`: how every strategy is built.
template <typename Steps, typename Options>
class StepsStrategy final : public Strategy {
 public:
  /// `name` must outlive the strategy (a string literal).
  StepsStrategy(std::string_view name, const Options& options)
      : name_(name), options_(options) {}

  std::string_view name() const override { return name_; }

  std::unique_ptr<StrategyRun> Start(const QuestionContext& context) override {
    return std::make_unique<Steps>(context, options_);
  }

 private:
  std::string_view name_;
  Options options_;
};

template <typename Steps, typename Options>
std::unique_ptr<Strategy> MakeStepsStrategy(std::string_view name,
                                            const Options& options) {
  return std::make_unique<StepsStrategy<Steps, Options>>(name, options);
}

}  // namespace uguide

#endif  // UGUIDE_CORE_STRATEGY_H_
