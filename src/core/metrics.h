#ifndef UGUIDE_CORE_METRICS_H_
#define UGUIDE_CORE_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "errorgen/error_generator.h"
#include "fd/fd.h"
#include "relation/relation.h"
#include "violations/true_violation_set.h"

namespace uguide {

class ViolationEngine;

/// \brief Error-detection quality of an accepted FD set against the true
/// violation set E_T (§7.1 "Performance Measures").
///
/// Detections are the union of the accepted FDs' violating cells on the
/// dirty table. Following the paper, a detection is a true positive when
/// the cell violates some true FD (it is in E_T) and a false positive
/// otherwise; a false negative is a cell of E_T no accepted FD flags.
struct DetectionMetrics {
  size_t detections = 0;
  size_t true_positives = 0;
  size_t false_positives = 0;
  size_t false_negatives = 0;
  size_t total_true_errors = 0;

  /// Secondary, ledger-based view: how many of the error generator's
  /// injected cells were flagged. The FD-detectable set E_T and the
  /// injected set coincide for the FD-targeted error models but diverge
  /// for random errors (most of which no FD can see) -- the paper's
  /// Fig. 3(c)/4(c) panels measure against injected errors.
  size_t injected_detected = 0;
  size_t total_injected = 0;

  /// "% of True Violations" axis of the paper's figures:
  /// detected fraction of E_T, in percent.
  double TrueViolationPct() const {
    return total_true_errors == 0
               ? 0.0
               : 100.0 * static_cast<double>(true_positives) /
                     static_cast<double>(total_true_errors);
  }

  /// "% of False Violations": false detections as a share of all
  /// detections, in percent (0 when nothing is detected).
  double FalseViolationPct() const {
    return detections == 0 ? 0.0
                           : 100.0 * static_cast<double>(false_positives) /
                                 static_cast<double>(detections);
  }

  double Precision() const {
    return detections == 0 ? 1.0
                           : static_cast<double>(true_positives) /
                                 static_cast<double>(detections);
  }

  double Recall() const {
    return total_true_errors == 0
               ? 1.0
               : static_cast<double>(true_positives) /
                     static_cast<double>(total_true_errors);
  }

  double F1() const {
    const double p = Precision();
    const double r = Recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }

  /// Flagged fraction of the cells the error generator actually changed,
  /// in percent (0 when no ledger was supplied).
  double InjectedRecallPct() const {
    return total_injected == 0
               ? 0.0
               : 100.0 * static_cast<double>(injected_detected) /
                     static_cast<double>(total_injected);
  }

  std::string ToString() const;
};

/// Computes detection metrics for `accepted` on `dirty` against the true
/// violation set. When `injected` is non-null, the ledger-based fields
/// (injected_detected / total_injected) are filled in as well.
DetectionMetrics EvaluateDetections(const Relation& dirty,
                                    const FdSet& accepted,
                                    const TrueViolationSet& true_violations,
                                    const GroundTruth* injected = nullptr);

/// As above, detecting violations through a shared engine (sessions pass
/// theirs so evaluation reuses the LHS partitions the strategy warmed).
DetectionMetrics EvaluateDetections(ViolationEngine& engine,
                                    const FdSet& accepted,
                                    const TrueViolationSet& true_violations,
                                    const GroundTruth* injected = nullptr);

/// The deduplicated set of cells flagged by any FD of `accepted` on
/// `dirty`, in row-major order.
std::vector<Cell> AllDetections(const Relation& dirty, const FdSet& accepted);

/// As above, through a shared engine.
std::vector<Cell> AllDetections(ViolationEngine& engine,
                                const FdSet& accepted);

}  // namespace uguide

#endif  // UGUIDE_CORE_METRICS_H_
