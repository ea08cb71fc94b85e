#include "server/dataset_registry.h"

#include <algorithm>
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

DatasetArtifacts::DatasetArtifacts(ServedDatasetOptions opts, DatasetKey k,
                                   Session s, ThreadPool* pool,
                                   MemoryBudget* budget)
    : options(opts),
      key(k),
      session(std::move(s)),
      artifact(session.artifact(pool, budget)),
      engine(std::shared_ptr<ViolationEngine>(), &artifact.engine()),
      graph(artifact.graph()),
      charged_bytes(artifact.ApproxMemoryBytes() +
                    ApproxRelationBytes(session.dirty())),
      budget_(budget) {
  // ForceCharge: shared artifacts must materialize; the soft limit answers
  // with eviction rather than refusal.
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
  bool is_probe = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto memo = recipe_to_key_.find(signature);
      if (memo != recipe_to_key_.end()) {
        auto it = entries_.find(memo->second);
        if (it != entries_.end() && it->second.artifacts != nullptr) {
          ++stats_.hits;
          it->second.last_used = ++tick_;
          return it->second.artifacts;
        }
      }
      // Circuit breaker: a quarantined recipe refuses instantly — no
      // build, no singleflight wait — until its backoff elapses, when
      // exactly one probe build is let through.
      auto breaker = breakers_.find(signature);
      if (breaker != breakers_.end() && breaker->second.quarantined &&
          building_.count(signature) == 0) {
        const auto now = FaultRegistry::Global().Now();
        if (now < breaker->second.open_until) {
          ++stats_.quarantined_opens;
          const int wait_ms = static_cast<int>(
              std::chrono::duration<double, std::milli>(
                  breaker->second.open_until - now)
                  .count()) +
              1;
          return Status::Unavailable(
              "dataset recipe quarantined after repeated build failures; "
              "retry in " +
              std::to_string(wait_ms) + "ms");
        }
        is_probe = true;
        ++stats_.probes;
      }
      if (building_.count(signature) == 0) break;
      // Singleflight: somebody is already building this recipe. Wait for
      // them and re-check the cache rather than building a duplicate.
      ++stats_.shared_waits;
      build_done_.wait(lock);
    }
    building_.insert(signature);
  }

  // The expensive part runs unlocked so distinct recipes build in
  // parallel and cache hits never stall behind a build.
  Result<std::shared_ptr<const DatasetArtifacts>> built =
      BuildArtifacts(options);

  std::unique_lock<std::mutex> lock(mu_);
  building_.erase(signature);
  build_done_.notify_all();
  if (!built.ok()) {
    RecordBuildFailureLocked(signature, is_probe);
    return built.status();
  }
  breakers_.erase(signature);  // A good build closes the breaker outright.
  std::shared_ptr<const DatasetArtifacts> artifacts =
      std::move(built).ValueOrDie();

  recipe_to_key_[signature] = artifacts->key;
  Entry& entry = entries_[artifacts->key];
  if (entry.artifacts != nullptr) {
    // The content key is already resident (another recipe raced to the
    // same bytes); keep the incumbent so every consumer shares one copy.
    ++stats_.hits;
    artifacts = entry.artifacts;
  } else {
    entry.artifacts = artifacts;
    ++stats_.builds;
  }
  entry.last_used = ++tick_;
  EvictLocked();
  return artifacts;
}

void DatasetRegistry::RecordBuildFailureLocked(uint64_t signature,
                                               bool was_probe) {
  if (options_.breaker_failures <= 0) return;
  const auto now = FaultRegistry::Global().Now();
  Breaker& breaker = breakers_[signature];
  if (was_probe && breaker.quarantined) {
    // Failed half-open probe: straight back to quarantine, backoff
    // doubled (capped) — no need to re-accumulate a window of failures.
    breaker.trips = std::min(breaker.trips + 1, 5);
    const double backoff_ms =
        options_.breaker_backoff_ms * static_cast<double>(1 << (breaker.trips - 1));
    breaker.open_until =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(backoff_ms));
    return;
  }
  breaker.failures.push_back(now);
  const auto window_start =
      now - std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(
                    options_.breaker_window_ms));
  while (!breaker.failures.empty() && breaker.failures.front() < window_start) {
    breaker.failures.pop_front();
  }
  if (static_cast<int>(breaker.failures.size()) >= options_.breaker_failures) {
    breaker.quarantined = true;
    breaker.trips = 1;
    breaker.failures.clear();
    breaker.open_until =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(
                      options_.breaker_backoff_ms));
    ++stats_.breaker_trips;
  }
}

Result<std::shared_ptr<const DatasetArtifacts>> DatasetRegistry::BuildArtifacts(
    const ServedDatasetOptions& options) const {
  // Deterministic failure injection for breaker tests and chaos soaks.
  UGUIDE_FAULT_POINT("registry.build");
  UGUIDE_ASSIGN_OR_RETURN(Session session, MakeServedDataset(options));
  const DatasetKey key{RelationContentHash(session.dirty()),
                       ServedDatasetSignature(options)};
  return std::shared_ptr<const DatasetArtifacts>(
      std::make_shared<DatasetArtifacts>(options, key, std::move(session),
                                         options_.pool,
                                         options_.memory_budget));
}

int DatasetRegistry::EvictIdle() {
  std::lock_guard<std::mutex> lock(mu_);
  return EvictLocked();
}

int DatasetRegistry::EvictLocked() {
  MemoryBudget* budget = options_.memory_budget;
  if (budget == nullptr) return 0;
  int evicted = 0;
  while (budget->OverSoftLimit()) {
    // LRU victim among unreferenced entries. use_count() == 1 is reliable
    // here: new references are only handed out under mu_, so a count of 1
    // cannot concurrently grow.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.artifacts.use_count() > 1) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;  // everything resident is pinned
    for (auto it = recipe_to_key_.begin(); it != recipe_to_key_.end();) {
      it = it->second == victim->first ? recipe_to_key_.erase(it)
                                       : std::next(it);
    }
    entries_.erase(victim);
    ++evicted;
    ++stats_.evicted;
  }
  return evicted;
}

int DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(entries_.size());
}

DatasetRegistryStats DatasetRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace uguide
