#include "server/dataset_registry.h"

#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace uguide {

DatasetArtifacts::DatasetArtifacts(DatasetKey k, Session s, ThreadPool* pool)
    : key(k),
      session(std::move(s)),
      artifact(session.artifact(pool)),
      engine(std::shared_ptr<ViolationEngine>(), &artifact.engine()),
      graph(artifact.graph()) {}

DatasetRegistry::DatasetRegistry(DatasetRegistryOptions options)
    : options_(options) {}

Result<std::shared_ptr<const DatasetArtifacts>> DatasetRegistry::Open(
    const ServedDatasetOptions& options) {
  const uint64_t signature = ServedDatasetSignature(options);
  // Held across the build: a concurrent Open of this recipe waits here
  // and then hits instead of building a second copy.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = built_.find(signature);
  if (it != built_.end()) {
    ++stats_.hits;
    return it->second;
  }
  // Deterministic failure injection for the not-cached-on-failure test.
  UGUIDE_FAULT_POINT("registry.build");
  UGUIDE_ASSIGN_OR_RETURN(Session session, MakeServedDataset(options));
  const DatasetKey key{RelationContentHash(session.dirty())};
  std::shared_ptr<const DatasetArtifacts> artifacts =
      std::make_shared<DatasetArtifacts>(key, std::move(session),
                                         options_.pool);
  built_.emplace(signature, artifacts);
  ++stats_.builds;
  return artifacts;
}

DatasetRegistryStats DatasetRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace uguide
