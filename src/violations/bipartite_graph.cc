#include "violations/bipartite_graph.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "violations/violation_engine.h"

namespace uguide {

namespace {

// Smallest power of two >= n (and >= 16, so tiny graphs still probe well).
size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t ViolationGraph::ProbeSlot(const Cell& cell) const {
  size_t slot = CellHash{}(cell) & index_mask_;
  while (true) {
    const CellId id = index_slots_[slot];
    if (id < 0 || cells_[static_cast<size_t>(id)] == cell) return slot;
    slot = (slot + 1) & index_mask_;
  }
}

void ViolationGraph::RebuildCellIndex() {
  // Load factor <= 0.5: slots = pow2 >= 2 * cells. Insertion order does not
  // affect the slot assignment's determinism — the table content is a pure
  // function of the cell set and the probe sequence — but inserting in id
  // order keeps the build itself deterministic too.
  index_slots_.assign(NextPow2(cells_.size() * 2), -1);
  index_mask_ = index_slots_.size() - 1;
  for (CellId c = 0; c < NumCells(); ++c) {
    index_slots_[ProbeSlot(cells_[static_cast<size_t>(c)])] = c;
  }
}

// Assembles a graph from per-FD violation-cell vectors. Cells are
// interned in FD order, so the result is a pure function of the inputs —
// independent of how (or on how many threads) the vectors were produced.
ViolationGraph ViolationGraph::Merge(
    std::vector<Fd> fds, const std::vector<const std::vector<Cell>*>& per_fd) {
  ViolationGraph g;
  g.fds_ = std::move(fds);

  // Distinct cells are bounded both by the edge count and by the grid the
  // cells lie on: each FD flags cells of one column, so with many FDs per
  // column the grid is the far tighter bound (Tax@10k: 160k grid cells
  // against 593k edges).
  size_t total_edges = 0;
  size_t rows = 0;
  size_t cols = 0;
  for (const auto* cells : per_fd) {
    total_edges += cells->size();
    for (const Cell& cell : *cells) {
      rows = std::max(rows, static_cast<size_t>(cell.row) + 1);
      cols = std::max(cols, static_cast<size_t>(cell.col) + 1);
    }
  }
  const size_t max_cells = std::min(total_edges, rows * cols);

  // Pass 1: intern cells in FD order (first sighting assigns the id) and
  // emit the FD-side CSR in the same sweep — edges are already grouped by
  // FD. The probe table is sized for the worst case (every possible cell
  // distinct) during interning and rebuilt right-sized afterwards.
  g.fd_cell_offsets_.reserve(g.fds_.size() + 1);
  g.fd_cell_offsets_.push_back(0);
  g.fd_cell_edges_.reserve(total_edges);
  g.index_slots_.assign(NextPow2(max_cells * 2), -1);
  g.index_mask_ = g.index_slots_.size() - 1;
  for (FdId f = 0; f < g.NumFds(); ++f) {
    for (const Cell& cell : *per_fd[static_cast<size_t>(f)]) {
      const size_t slot = g.ProbeSlot(cell);
      CellId c = g.index_slots_[slot];
      if (c < 0) {
        c = static_cast<CellId>(g.cells_.size());
        g.index_slots_[slot] = c;
        g.cells_.push_back(cell);
      }
      g.fd_cell_edges_.push_back(c);
    }
    g.fd_cell_offsets_.push_back(
        static_cast<uint32_t>(g.fd_cell_edges_.size()));
  }

  // Pass 2: invert to the cell-side CSR — count degrees, prefix-sum, then
  // scatter FD ids in ascending-f order (matching the interleaved
  // push_back order of the nested-vector layout).
  g.cell_fd_offsets_.assign(g.cells_.size() + 1, 0);
  for (CellId c : g.fd_cell_edges_) {
    ++g.cell_fd_offsets_[static_cast<size_t>(c) + 1];
  }
  for (size_t i = 1; i < g.cell_fd_offsets_.size(); ++i) {
    g.cell_fd_offsets_[i] += g.cell_fd_offsets_[i - 1];
  }
  g.cell_fd_edges_.resize(total_edges);
  std::vector<uint32_t> cursor(g.cell_fd_offsets_.begin(),
                               g.cell_fd_offsets_.end() - 1);
  for (FdId f = 0; f < g.NumFds(); ++f) {
    const uint32_t begin = g.fd_cell_offsets_[static_cast<size_t>(f)];
    const uint32_t end = g.fd_cell_offsets_[static_cast<size_t>(f) + 1];
    for (uint32_t e = begin; e < end; ++e) {
      const CellId c = g.fd_cell_edges_[e];
      g.cell_fd_edges_[cursor[static_cast<size_t>(c)]++] = f;
    }
  }

  // The all-active template: everything starts live; both degree arrays
  // start at the full adjacency size.
  GraphActiveState& active = g.all_active_;
  active.fds = IdBitmap::AllSet(g.NumFds());
  active.cells = IdBitmap::AllSet(g.NumCells());
  active.fd_degree.resize(g.fds_.size());
  for (size_t f = 0; f < g.fds_.size(); ++f) {
    active.fd_degree[f] = static_cast<int>(g.fd_cell_offsets_[f + 1] -
                                           g.fd_cell_offsets_[f]);
  }
  active.cell_degree.resize(g.cells_.size());
  for (size_t c = 0; c < g.cells_.size(); ++c) {
    active.cell_degree[c] = static_cast<int>(g.cell_fd_offsets_[c + 1] -
                                             g.cell_fd_offsets_[c]);
  }

  // Right-size the probe table. When the worst-case table already has the
  // right-sized capacity (common once duplicates across FDs are rare), the
  // interning table IS the rebuilt one — both insert the same cells in id
  // order under the same mask — so the full rehash is skipped. Either way
  // the final table is the same pure function of the graph's content.
  if (g.index_slots_.size() != NextPow2(g.cells_.size() * 2)) {
    g.RebuildCellIndex();
  }
  return g;
}

namespace {

/// Borrows every vector in `per_fd` for the pointer-view Merge.
std::vector<const std::vector<Cell>*> ViewsOf(
    const std::vector<std::vector<Cell>>& per_fd) {
  std::vector<const std::vector<Cell>*> views;
  views.reserve(per_fd.size());
  for (const auto& cells : per_fd) views.push_back(&cells);
  return views;
}

}  // namespace

ViolationGraph ViolationGraph::FromPerFdCells(
    std::vector<Fd> fds, const std::vector<std::vector<Cell>>& per_fd) {
  return Merge(std::move(fds), ViewsOf(per_fd));
}

ViolationGraph ViolationGraph::FromPerFdCells(
    std::vector<Fd> fds,
    const std::vector<std::shared_ptr<const std::vector<Cell>>>& per_fd) {
  std::vector<const std::vector<Cell>*> views;
  views.reserve(per_fd.size());
  for (const auto& cells : per_fd) views.push_back(cells.get());
  return Merge(std::move(fds), views);
}

ViolationGraph ViolationGraph::Build(const Relation& relation,
                                     const FdSet& candidates) {
  ViolationEngine local(&relation);
  return Build(local, candidates, /*pool=*/nullptr);
}

ViolationGraph ViolationGraph::Build(ViolationEngine& engine,
                                     const FdSet& candidates,
                                     ThreadPool* pool) {
  // Freeze the FD list, shard the per-FD violation scans across the pool
  // (the engine is thread-safe), then merge serially in FD order: the
  // merge sees identical per-FD cell vectors regardless of thread count,
  // so cell ids and adjacency order are bit-identical to the serial build.
  std::vector<Fd> fds(candidates.begin(), candidates.end());
  std::vector<std::vector<Cell>> per_fd;
  if (pool != nullptr && pool->num_threads() > 1 && fds.size() > 1) {
    per_fd = pool->ParallelMap(
        fds, [&](const Fd& fd) { return engine.ViolatingCells(fd); });
  } else {
    per_fd.reserve(fds.size());
    for (const Fd& fd : fds) per_fd.push_back(engine.ViolatingCells(fd));
  }
  return Merge(std::move(fds), ViewsOf(per_fd));
}

void GraphView::DeactivateFd(FdId f) {
  if (!FdActive(f)) return;
  state_.fds.Clear(f);
  // Cells orphaned by this removal are no longer violations of anything.
  // The cell-side degree is decremented unconditionally (it tracks active
  // *FDs*, and this FD was active); the cascade to DeactivateCell keeps
  // the FD-side degrees in sync.
  for (CellId c : CellsOfFd(f)) {
    int& degree = state_.cell_degree[static_cast<size_t>(c)];
    --degree;
    if (degree == 0 && CellActive(c)) DeactivateCell(c);
  }
}

void GraphView::DeactivateCell(CellId c) {
  if (!CellActive(c)) return;
  state_.cells.Clear(c);
  // Keep per-FD active-cell counts exact. A cell deactivates at most once
  // (guard above), so each adjacent FD is decremented exactly once per
  // cell. Inactive FDs are updated too — harmless, since their
  // ActiveDegreeOfFd reads 0 regardless.
  for (FdId f : FdsOfCell(c)) {
    --state_.fd_degree[static_cast<size_t>(f)];
  }
}

std::vector<FdId> GraphView::ActiveFds() const {
  std::vector<FdId> out;
  ForEachActiveFd([&](FdId f) { out.push_back(f); });
  return out;
}

std::vector<CellId> GraphView::ActiveCells() const {
  std::vector<CellId> out;
  ForEachActiveCell([&](CellId c) { out.push_back(c); });
  return out;
}

CellId ViolationGraph::FindCell(const Cell& cell) const {
  if (index_slots_.empty()) return -1;
  return index_slots_[ProbeSlot(cell)];
}

size_t ViolationGraph::ApproxMemoryBytes() const {
  return fds_.size() * sizeof(Fd) + cells_.size() * sizeof(Cell) +
         fd_cell_offsets_.size() * sizeof(uint32_t) +
         fd_cell_edges_.size() * sizeof(CellId) +
         cell_fd_offsets_.size() * sizeof(uint32_t) +
         cell_fd_edges_.size() * sizeof(FdId) + all_active_.fds.ApproxBytes() +
         all_active_.cells.ApproxBytes() +
         (all_active_.fd_degree.size() + all_active_.cell_degree.size()) *
             sizeof(int) +
         index_slots_.size() * sizeof(CellId);
}

}  // namespace uguide
