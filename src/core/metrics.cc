#include "core/metrics.h"

#include "relation/cell_bitmap.h"
#include "violations/violation_engine.h"

namespace uguide {

std::vector<Cell> AllDetections(ViolationEngine& engine,
                                const FdSet& accepted) {
  return engine.ViolatingCellUnion(accepted).ToVector();
}

std::vector<Cell> AllDetections(const Relation& dirty,
                                const FdSet& accepted) {
  ViolationEngine engine(&dirty);
  return AllDetections(engine, accepted);
}

DetectionMetrics EvaluateDetections(const Relation& dirty,
                                    const FdSet& accepted,
                                    const TrueViolationSet& true_violations,
                                    const GroundTruth* injected) {
  ViolationEngine engine(&dirty);
  return EvaluateDetections(engine, accepted, true_violations, injected);
}

DetectionMetrics EvaluateDetections(ViolationEngine& engine,
                                    const FdSet& accepted,
                                    const TrueViolationSet& true_violations,
                                    const GroundTruth* injected) {
  DetectionMetrics metrics;
  metrics.total_true_errors = true_violations.Size();
  if (injected != nullptr) metrics.total_injected = injected->NumChanged();

  const CellBitmap detections = engine.ViolatingCellUnion(accepted);
  metrics.detections = detections.Count();
  metrics.true_positives = detections.AndCount(true_violations.cells());
  metrics.false_positives = metrics.detections - metrics.true_positives;
  if (injected != nullptr) {
    for (const Cell& cell : injected->ChangedCells()) {
      if (detections.Test(cell)) ++metrics.injected_detected;
    }
  }
  metrics.false_negatives = metrics.total_true_errors - metrics.true_positives;
  return metrics;
}

std::string DetectionMetrics::ToString() const {
  std::string out = "detections=" + std::to_string(detections);
  out += " TP=" + std::to_string(true_positives);
  out += " FP=" + std::to_string(false_positives);
  out += " FN=" + std::to_string(false_negatives);
  out += " true%=" + std::to_string(TrueViolationPct());
  out += " false%=" + std::to_string(FalseViolationPct());
  return out;
}

}  // namespace uguide
