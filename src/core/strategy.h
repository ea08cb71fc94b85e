#ifndef UGUIDE_CORE_STRATEGY_H_
#define UGUIDE_CORE_STRATEGY_H_

#include <memory>
#include <string>
#include <string_view>

#include "errorgen/error_generator.h"
#include "fd/fd.h"
#include "oracle/cost_model.h"
#include "oracle/expert.h"
#include "relation/relation.h"
#include "violations/true_violation_set.h"

namespace uguide {

class ThreadPool;
class ViolationArtifact;

/// \brief Everything an interactive strategy needs for one run.
///
/// `true_violations` is only consulted by the hypothetical oracle
/// baselines of §7.1, which are allowed to peek at the ground truth; honest
/// strategies ignore it and may leave it null.
struct QuestionContext {
  const Relation* dirty = nullptr;
  const FdSet* candidates = nullptr;
  Expert* expert = nullptr;
  CostModel cost;
  double budget = 0.0;

  /// The dataset's violation artifact over `dirty` and `candidates`:
  /// engine, frozen graph, cell classes, removal and per-tuple counts and
  /// the FD question pool, shared read-only by every run (a session
  /// passes its own, Session::artifact). Optional: strategies wrap it in
  /// an ArtifactRef, which falls back to a private build when this is
  /// null — bit-identical, since the artifact is a deterministic function
  /// of `dirty` and `candidates`.
  const ViolationArtifact* artifact = nullptr;

  /// Worker pool for a private fallback build. Optional; null (or a
  /// single-thread pool) means serial. Results are bit-identical at any
  /// thread count.
  ThreadPool* pool = nullptr;

  /// Sigma_T, the exact FDs discovered on the dirty table. Optional; the
  /// saturation-set tuple strategy needs it (Alg. 8) and rediscovers it if
  /// absent.
  const FdSet* exact_fds = nullptr;

  /// Sigma_TC, the FD set the simulated expert validates against (oracle
  /// baselines only -- they are allowed to peek, §7.1).
  const FdSet* true_fds = nullptr;

  /// E_T, the cells violating the true FDs (oracle baselines only).
  const TrueViolationSet* true_violations = nullptr;

  /// The error generator's ledger (oracle baselines only).
  const GroundTruth* injected = nullptr;
};

/// Outcome of a strategy run.
struct StrategyResult {
  /// The FDs the strategy accepts as true; their violations on the dirty
  /// table are the reported error detections.
  FdSet accepted_fds;
  double cost_spent = 0.0;
  int questions_asked = 0;
};

/// \brief Interface every question-selection strategy implements.
///
/// A strategy instance is stateless across runs: Run() may be called
/// repeatedly with different contexts (the benches sweep budgets this way).
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Short machine-friendly name, e.g. "CellQ-SUMS".
  virtual std::string_view name() const = 0;

  /// Executes the interactive loop until the budget is exhausted (or no
  /// useful question remains) and returns the accepted FDs.
  virtual StrategyResult Run(const QuestionContext& context) = 0;
};

}  // namespace uguide

#endif  // UGUIDE_CORE_STRATEGY_H_
