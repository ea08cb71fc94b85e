#include "server/dataset_registry.h"

#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"

namespace uguide {
namespace {

/// Payload bytes of the session's dirty table: column code vectors plus
/// the dictionary strings (same convention as Partition::ApproxBytes —
/// container payloads, not allocator metadata).
size_t ApproxRelationBytes(const Relation& relation) {
  size_t bytes = static_cast<size_t>(relation.NumRows()) *
                 static_cast<size_t>(relation.NumAttributes()) *
                 sizeof(ValueCode);
  const ValueCode pool_size = static_cast<ValueCode>(relation.pool().Size());
  for (ValueCode code = 0; code < pool_size; ++code) {
    bytes += sizeof(std::string) + relation.pool().Lookup(code).size();
  }
  return bytes;
}

}  // namespace

DatasetArtifacts::DatasetArtifacts(DatasetKey k, Session s, ThreadPool* pool,
                                   MemoryBudget* budget)
    : key(k),
      session(std::move(s)),
      artifact(session.artifact(pool, budget)),
      engine(std::shared_ptr<ViolationEngine>(), &artifact.engine()),
      graph(artifact.graph()),
      charged_bytes(artifact.ApproxMemoryBytes() +
                    ApproxRelationBytes(session.dirty())),
      budget_(budget) {
  if (budget_ != nullptr) budget_->ForceCharge(charged_bytes);
}

DatasetArtifacts::~DatasetArtifacts() {
  if (budget_ != nullptr) budget_->Release(charged_bytes);
}

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
                                         options_.pool, options_.memory_budget);
  built_.emplace(signature, artifacts);
  ++stats_.builds;
  return artifacts;
}

DatasetRegistryStats DatasetRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace uguide
