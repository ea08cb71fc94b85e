#include "violations/violation_artifact.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/thread_pool.h"
#include "fd/closure.h"
#include "oracle/cost_model.h"

namespace uguide {

FdQuestionPool::FdQuestionPool(ViolationEngine& engine,
                               const ViolationGraph& graph, int max_merged) {
  std::vector<Fd> base;
  base.reserve(static_cast<size_t>(graph.NumFds()));
  for (FdId f = 0; f < graph.NumFds(); ++f) base.push_back(graph.fd(f));
  const FdSet candidates(base);
  candidate_extra_.reserve(base.size());
  for (const Fd& fd : base) {
    candidate_extra_.push_back(CostModel::ExtraAttributes(fd, candidates));
  }

  // Merged same-RHS pairs (§5's AB -> C example) in (i, j) order, skipping
  // invalid shapes, candidates and repeats; stopping at the cap is the
  // only thing the cap changes, hence the prefix stability.
  std::unordered_set<Fd, FdHash> known(base.begin(), base.end());
  complete_ = true;
  for (size_t i = 0; i < base.size() && complete_; ++i) {
    for (size_t j = i + 1; j < base.size(); ++j) {
      if (base[i].rhs != base[j].rhs) continue;
      Fd merged(base[i].lhs.Union(base[j].lhs), base[i].rhs);
      if (!merged.IsValidShape() || known.contains(merged)) continue;
      if (NumMerged() >= max_merged) {
        complete_ = false;
        break;
      }
      known.insert(merged);
      merged_fds_.push_back(merged);
    }
  }

  cell_offsets_.reserve(merged_fds_.size() + 1);
  cell_offsets_.push_back(0);
  for (const Fd& merged : merged_fds_) {
    for (TupleId row : engine.ViolatingTuplesUnordered(merged)) {
      const CellId c = graph.FindCell(Cell{row, merged.rhs});
      UGUIDE_CHECK(c >= 0) << "merged question flags a non-graph cell";
      cell_edges_.push_back(c);
    }
    cell_offsets_.push_back(static_cast<uint32_t>(cell_edges_.size()));
    merged_extra_.push_back(CostModel::ExtraAttributes(merged, candidates));
    merged_removal_.push_back(engine.G3RemovalCount(merged));
  }

  // Invert to the cell side: count, prefix-sum, scatter in question order
  // so every cell's list is ascending.
  merged_offsets_.assign(static_cast<size_t>(graph.NumCells()) + 1, 0);
  for (CellId c : cell_edges_) ++merged_offsets_[static_cast<size_t>(c) + 1];
  for (size_t i = 1; i < merged_offsets_.size(); ++i) {
    merged_offsets_[i] += merged_offsets_[i - 1];
  }
  merged_edges_.resize(cell_edges_.size());
  std::vector<uint32_t> cursor(merged_offsets_.begin(),
                               merged_offsets_.end() - 1);
  for (int m = 0; m < NumMerged(); ++m) {
    for (CellId c : CellsOfMerged(m)) {
      merged_edges_[cursor[static_cast<size_t>(c)]++] = m;
    }
  }
}

size_t FdQuestionPool::ApproxMemoryBytes() const {
  return candidate_extra_.size() * sizeof(int) +
         merged_fds_.size() * sizeof(Fd) + merged_extra_.size() * sizeof(int) +
         merged_removal_.size() * sizeof(size_t) +
         cell_offsets_.size() * sizeof(uint32_t) +
         cell_edges_.size() * sizeof(CellId) +
         merged_offsets_.size() * sizeof(uint32_t) +
         merged_edges_.size() * sizeof(int);
}

SaturatedFamily::SaturatedFamily(const FdSet& fds, int num_attributes,
                                 size_t max_sets)
    : fds_(fds.fds()), max_sets_(std::max<size_t>(max_sets, 1)) {
  const AttributeSet full = AttributeSet::Full(num_attributes);
  std::vector<AttributeSet> closed =
      SaturatedSets(fds, num_attributes, max_sets);
  // NextClosure ends at the full set, so holding it means the
  // enumeration ran to the end.
  complete_ = closed.back() == full;
  if (complete_) closed.pop_back();
  sets_ = std::move(closed);

  size_t slots = 16;
  while (slots < sets_.size() * 2) slots <<= 1;
  index_mask_ = slots - 1;
  index_.assign(slots, -1);
  for (int i = 0; i < Size(); ++i) {
    size_t slot = AttributeSetHash{}(set(i)) & index_mask_;
    while (index_[slot] >= 0) slot = (slot + 1) & index_mask_;
    index_[slot] = i;
  }
}

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
  // hits. Each FD's removal rows are independent of the others and are
  // summed in FD order, so sharding cannot change either count.
  std::vector<FdId> ids(static_cast<size_t>(graph_->NumFds()));
  for (FdId f = 0; f < graph_->NumFds(); ++f) ids[static_cast<size_t>(f)] = f;
  auto removal_rows = [this](FdId f) {
    return engine_->G3RemovalTuplesUnordered(graph_->fd(f));
  };
  tuple_counts_.assign(static_cast<size_t>(engine_->relation().NumRows()), 0);
  removal_counts_.reserve(ids.size());
  auto add = [this](const std::vector<TupleId>& rows) {
    removal_counts_.push_back(rows.size());
    for (TupleId r : rows) ++tuple_counts_[static_cast<size_t>(r)];
  };
  if (pool != nullptr && pool->num_threads() > 1 && ids.size() > 1) {
    for (const std::vector<TupleId>& rows :
         pool->ParallelMap(ids, removal_rows)) {
      add(rows);
    }
  } else {
    for (FdId f : ids) add(removal_rows(f));
  }
}

std::shared_ptr<const FdQuestionPool> ViolationArtifact::FdQuestions(
    int max_merged) const {
  max_merged = std::max(0, max_merged);
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr || !pool_->Covers(max_merged)) {
    pool_ = std::make_shared<const FdQuestionPool>(*engine_, *graph_,
                                                   max_merged);
  }
  return pool_;
}

std::shared_ptr<const SaturatedFamily> ViolationArtifact::SaturatedSetFamily(
    const FdSet& exact_fds, size_t max_sets) const {
  std::lock_guard<std::mutex> lock(family_mu_);
  if (family_ != nullptr) {
    UGUIDE_CHECK(family_->BuiltFrom(exact_fds))
        << "saturated sets requested for another exact FD set";
  }
  if (family_ == nullptr || !family_->Covers(max_sets)) {
    family_ = std::make_shared<const SaturatedFamily>(
        exact_fds, engine_->relation().NumAttributes(), max_sets);
  }
  return family_;
}

std::shared_ptr<const ArtifactPiece> ViolationArtifact::PieceOf(
    const std::string& key,
    const std::function<std::shared_ptr<const ArtifactPiece>()>& build)
    const {
  std::lock_guard<std::mutex> lock(pieces_mu_);
  std::shared_ptr<const ArtifactPiece>& piece = pieces_[key];
  if (piece == nullptr) piece = build();
  return piece;
}

size_t ViolationArtifact::ApproxMemoryBytes() const {
  size_t lazy_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (pool_ != nullptr) lazy_bytes += pool_->ApproxMemoryBytes();
  }
  {
    std::lock_guard<std::mutex> lock(family_mu_);
    if (family_ != nullptr) lazy_bytes += family_->ApproxMemoryBytes();
  }
  {
    std::lock_guard<std::mutex> lock(pieces_mu_);
    for (const auto& [key, piece] : pieces_) {
      if (piece != nullptr) lazy_bytes += piece->ApproxMemoryBytes();
    }
  }
  return graph_->ApproxMemoryBytes() + classes_.ApproxMemoryBytes() +
         removal_counts_.size() * sizeof(size_t) +
         tuple_counts_.size() * sizeof(int) + lazy_bytes;
}

}  // namespace uguide
