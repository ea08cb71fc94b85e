#include "live/live_dataset.h"

#include <utility>

#include "common/thread_pool.h"

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
        ViolationGraph::FromPerFdCells(fds, per_fd));
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
      relation_(base->dirty()),
      store_(&relation_.relation(), /*budget=*/nullptr),
      index_(base->artifact(pool).graph()) {
  UGUIDE_CHECK(options_.epoch_ring >= 1);
  // Seed the cross-epoch store with the canonical column partitions; they
  // are pinned and patched in place by AdvanceTo, never recomputed from
  // scratch. Products arrive later, harvested from outgoing epochs.
  for (int c = 0; c < relation_.relation().NumAttributes(); ++c) {
    store_.PutShared(
        AttributeSet::Single(c),
        std::make_shared<const Partition>(
            Partition::ForColumn(relation_.relation(), c)),
        /*pinned=*/true);
  }
  auto epoch = std::make_shared<LiveEpoch>();
  epoch->version = 0;
  epoch->content_hash = content_hash_;
  epoch->session = Unowned(base);
  epoch->base = &base->artifact();
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
  // Harvest the outgoing epoch's products first: partitions its sessions
  // computed on demand flow back into the cross-epoch store, and the
  // AdvanceTo below keeps exactly the ones the mutation scope leaves
  // clean. (PutShared no-ops on the already-resident singles.)
  for (auto& [attrs, handle] : ring_.back()->engine->StorePartitions()) {
    if (attrs.Empty()) continue;  // trivial to rebuild; row census may move
    store_.PutShared(attrs, std::move(handle), /*pinned=*/attrs.Size() == 1);
  }

  MutationReceipt receipt = relation_.Apply(batch);
  ops_applied_ += receipt.applied;
  ops_refused_ += receipt.refused;
  if (receipt.applied == 0) return receipt;
  ++batches_applied_;

  // Patch the store for the dirty scope: singles in place (O(Δ) group
  // moves already happened inside LiveRelation; emission is linear in the
  // touched column), dirty products dropped, clean entries carried over.
  store_.AdvanceTo(receipt.version, receipt.scope.attrs, [&](int col) {
    return std::make_shared<const Partition>(relation_.ColumnPartition(col));
  });

  // Publish the next epoch: rebased session (E_T recomputed against the
  // mutated table), an engine pre-seeded with every surviving partition,
  // and the merge inputs for a graph assembled lazily from vectors where
  // only scope-touching FDs were re-scanned — byte-identical to a full
  // rebuild when (and only if) a session materializes it.
  auto session = std::make_shared<const Session>(
      Session::Rebase(*base_, relation_.relation()));
  auto engine = std::make_shared<ViolationEngine>(&session->dirty(),
                                                  /*budget=*/nullptr);
  for (auto& [attrs, handle] : store_.Snapshot()) {
    engine->SeedPartition(attrs, std::move(handle));
  }
  index_.Advance(receipt.scope.attrs, *engine, pool_);

  auto epoch = std::make_shared<LiveEpoch>();
  epoch->version = receipt.version;
  epoch->content_hash = content_hash_;
  epoch->session = std::move(session);
  epoch->engine = std::move(engine);
  epoch->fds = index_.fds();
  epoch->per_fd = index_.Snapshot();
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
  stats.fds_recomputed = index_.fds_recomputed();
  stats.fds_skipped = index_.fds_skipped();
  return stats;
}

}  // namespace uguide
