#include "violations/violation_artifact.h"

#include <utility>

#include "common/thread_pool.h"

namespace uguide {

ViolationArtifact::ViolationArtifact(std::shared_ptr<ViolationEngine> engine,
                                     const FdSet& candidates, ThreadPool* pool)
    : ViolationArtifact(engine,
                        std::make_shared<const ViolationGraph>(
                            ViolationGraph::Build(*engine, candidates, pool)),
                        pool) {}

ViolationArtifact::ViolationArtifact(
    std::shared_ptr<ViolationEngine> engine,
    std::shared_ptr<const ViolationGraph> graph, ThreadPool* pool)
    : engine_(std::move(engine)),
      graph_(std::move(graph)),
      classes_(*graph_) {
  // The LHS partitions are the graph build's, so these scans are cache
  // hits; each count is independent, so sharding cannot change them.
  std::vector<FdId> ids(static_cast<size_t>(graph_->NumFds()));
  for (FdId f = 0; f < graph_->NumFds(); ++f) ids[static_cast<size_t>(f)] = f;
  auto count = [this](FdId f) {
    return engine_->G3RemovalCount(graph_->fd(f));
  };
  if (pool != nullptr && pool->num_threads() > 1 && ids.size() > 1) {
    removal_counts_ = pool->ParallelMap(ids, count);
  } else {
    removal_counts_.reserve(ids.size());
    for (FdId f : ids) removal_counts_.push_back(count(f));
  }
}

size_t ViolationArtifact::ApproxMemoryBytes() const {
  return graph_->ApproxMemoryBytes() + classes_.ApproxMemoryBytes() +
         removal_counts_.size() * sizeof(size_t);
}

}  // namespace uguide
