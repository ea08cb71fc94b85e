#include "live/live_dataset.h"

#include <utility>

namespace uguide {

namespace {

/// Wraps a caller-owned pointer as a non-owning shared_ptr (epoch 0 serves
/// the registry's artifacts without copying or adopting them).
template <typename T>
std::shared_ptr<T> Unowned(T* ptr) {
  return std::shared_ptr<T>(ptr, [](T*) {});
}

}  // namespace

const ViolationGraph& LiveEpoch::graph() const {
  if (base != nullptr) return base->graph();
  std::call_once(graph_once_, [this] {
    graph_ = std::make_shared<const ViolationGraph>(
        ViolationGraph::Build(*engine, session->candidates(), pool));
  });
  return *graph_;
}

const ViolationArtifact& LiveEpoch::artifact() const {
  if (base != nullptr) return *base;
  std::call_once(artifact_once_, [this] {
    graph();
    artifact_ = std::make_unique<const ViolationArtifact>(engine, graph_);
  });
  return *artifact_;
}

LiveDataset::LiveDataset(const Session* base, uint64_t content_hash,
                         ThreadPool* pool, LiveDatasetOptions options)
    : base_(base),
      content_hash_(content_hash),
      pool_(pool),
      options_(options),
      relation_(base->dirty()) {
  UGUIDE_CHECK(options_.epoch_ring >= 1);
  auto epoch = std::make_shared<LiveEpoch>();
  epoch->version = 0;
  epoch->content_hash = content_hash_;
  epoch->session = Unowned(base);
  epoch->base = &base->artifact(pool);
  epoch->engine = Unowned(&epoch->base->engine());
  ring_.push_back(std::move(epoch));
}

LiveDataset::LiveDataset(const Session* base, ViolationEngine* base_engine,
                         const ViolationGraph* base_graph,
                         uint64_t content_hash, ThreadPool* pool,
                         LiveDatasetOptions options)
    : LiveDataset(base, content_hash, pool, options) {
  UGUIDE_CHECK(base_engine == &base->artifact().engine() &&
               base_graph == &base->artifact().graph())
      << "epoch 0 must serve the base session's own artifact";
}

std::shared_ptr<const LiveEpoch> LiveDataset::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.back();
}

std::shared_ptr<const LiveEpoch> LiveDataset::AtVersion(
    DataVersion version) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& epoch : ring_) {
    if (epoch->version == version) return epoch;
  }
  return nullptr;
}

MutationReceipt LiveDataset::Apply(const MutationBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  MutationReceipt receipt = relation_.Apply(batch);
  ops_applied_ += receipt.applied;
  ops_refused_ += receipt.refused;
  if (receipt.applied == 0) return receipt;
  ++batches_applied_;

  // Publish the next epoch: the session rebased onto the mutated table
  // (E_T recomputed) and a fresh engine over it. No violation work happens
  // here; the epoch builds its graph when a session first opens on it.
  auto epoch = std::make_shared<LiveEpoch>();
  epoch->version = receipt.version;
  epoch->content_hash = content_hash_;
  epoch->session = std::make_shared<const Session>(
      Session::Rebase(*base_, relation_.relation()));
  epoch->engine = std::make_shared<ViolationEngine>(&epoch->session->dirty());
  epoch->pool = pool_;
  ring_.push_back(std::move(epoch));
  if (ring_.size() > options_.epoch_ring) ring_.erase(ring_.begin());
  return receipt;
}

LiveDataset::Stats LiveDataset::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.batches_applied = batches_applied_;
  stats.ops_applied = ops_applied_;
  stats.ops_refused = ops_refused_;
  return stats;
}

}  // namespace uguide
