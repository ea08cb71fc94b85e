#ifndef UGUIDE_CORE_CELL_STRATEGIES_H_
#define UGUIDE_CORE_CELL_STRATEGIES_H_

#include <memory>

#include "core/strategy.h"

namespace uguide {

/// Tuning knobs shared by the cell-based strategies (§4).
struct CellStrategyOptions {
  /// Starting confidence of every candidate FD ("minimum confidence",
  /// Alg. 2 line 2, calibrated to [0, 1]).
  double initial_confidence = 0.5;

  /// Confidence bump applied to every FD flagging a confirmed violation
  /// (the delta of Algorithm 2, default 0.1). Confidence caps at 1.
  double delta = 0.1;

  /// Absolute acceptance cut (§7.2.1's "confidence above a certain
  /// threshold, say 90%"): an FD is accepted when its confidence reached
  /// accept_threshold and it was never invalidated. With the defaults an FD
  /// needs four confirmed violations. Setting 0 accepts every surviving FD
  /// (Algorithm 2's literal `return Sigma`).
  double accept_threshold = 0.9;

  /// SUMS (Algorithm 3/4): Estimate-Confidence iteration cap, convergence
  /// tolerance, and how many answers are batched between recomputations
  /// (the fixpoint moves little per answer; batching keeps the interactive
  /// loop fast).
  int sums_max_iterations = 20;
  double sums_tolerance = 1e-3;
  int sums_recompute_interval = 20;

  /// SUMS acceptance cut on the evidence confidence (same mechanism as
  /// accept_threshold; the truth-discovery fixpoint steers question
  /// *selection*, while acceptance follows confirmed violations).
  double sums_accept_threshold = 0.9;
};

/// Cell-Q-Hitting-Set (Algorithm 2): asks the violation minimizing
/// weight/degree, bumping FD confidences on "yes" and discarding all
/// flagging FDs on "no".
std::unique_ptr<Strategy> MakeCellQHittingSet(
    const CellStrategyOptions& options = {});

/// Cell-Q-SUMS (Algorithms 3-4): truth-discovery confidence propagation
/// between FDs and violations; asks the highest-information (uncertain,
/// high-degree) violation each round.
std::unique_ptr<Strategy> MakeCellQSums(
    const CellStrategyOptions& options = {});

/// CellQ-Greedy baseline (§7.1): asks the violation flagged by the most
/// candidate FDs.
std::unique_ptr<Strategy> MakeCellQGreedy(
    const CellStrategyOptions& options = {});

/// CellQ-Oracle baseline (§7.1): peeks at the ground truth and, each round,
/// asks the question with the best payoff -- a clean cell invalidating the
/// most false FDs, or a true violation confirming the most not-yet-accepted
/// true FDs. Requires QuestionContext::true_violations and ::true_fds.
std::unique_ptr<Strategy> MakeCellQOracle(
    const CellStrategyOptions& options = {});

}  // namespace uguide

#endif  // UGUIDE_CORE_CELL_STRATEGIES_H_
