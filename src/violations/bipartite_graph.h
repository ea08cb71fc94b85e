#ifndef UGUIDE_VIOLATIONS_BIPARTITE_GRAPH_H_
#define UGUIDE_VIOLATIONS_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/id_bitmap.h"
#include "common/span.h"
#include "fd/fd.h"
#include "relation/relation.h"

namespace uguide {

class ThreadPool;
class ViolationEngine;

/// Index of an FD node in a ViolationGraph.
using FdId = int;
/// Index of a violation (cell) node in a ViolationGraph.
using CellId = int;

/// The mutable half of the graph: which nodes are still active, and how
/// many active neighbours each node has.
struct GraphActiveState {
  IdBitmap fds;
  IdBitmap cells;
  /// Active cells flagged by each FD / active FDs flagging each cell.
  std::vector<int> fd_degree;
  std::vector<int> cell_degree;
};

/// \brief The bipartite FD <-> violation graph of §3.2, frozen.
///
/// Left nodes are candidate FDs; right nodes are the cells they flag; an
/// edge connects an FD to every cell of ViolatingCells(fd). The graph
/// depends only on the relation and the candidate set, never on a
/// strategy run, so it is built once per dataset and shared `const` by
/// every run over it (DESIGN.md §14). What a run mutates — nodes
/// deactivating as the expert answers — lives in a GraphView, the small
/// per-run overlay copied from the all-active template kept here.
///
/// Both adjacency directions are frozen CSR: one flat edge array plus an
/// offset array, built once in the deterministic merge (FromPerFdCells).
/// Cell lookup uses an open-addressed linear-probe table rebuilt
/// right-sized after the merge, so the footprint reported by
/// ApproxMemoryBytes() is a pure function of the graph's content.
class ViolationGraph {
 public:
  /// Builds the graph for `candidates` over `relation`. FDs that flag no
  /// cell still get a node (with no edges) so FdIds align with the input
  /// set's order. Routes violation detection through a private
  /// partition-backed engine; prefer the engine overload to share the
  /// LHS-partition cache with the rest of a session.
  static ViolationGraph Build(const Relation& relation,
                              const FdSet& candidates);

  /// As above, detecting violations through `engine`. When `pool` drives
  /// more than one thread, per-FD violation sets are computed in parallel
  /// and merged in FD order, so cell ids, adjacency order, and the whole
  /// graph are bit-identical to the serial build at any thread count
  /// (freeze inputs / shard per FD / merge in order — the discipline of
  /// parallel discovery, DESIGN.md §6).
  static ViolationGraph Build(ViolationEngine& engine, const FdSet& candidates,
                              ThreadPool* pool = nullptr);

  /// Assembles a graph directly from per-FD violation-cell vectors
  /// (`per_fd[i]` belongs to `fds[i]`). This is the deterministic merge
  /// step every build path funnels through: cells are interned in FD
  /// order, so the graph is a pure function of its inputs. The reference
  /// detector (tests/reference) feeds its own vectors through it.
  static ViolationGraph FromPerFdCells(
      std::vector<Fd> fds, const std::vector<std::vector<Cell>>& per_fd);

  int NumFds() const { return static_cast<int>(fds_.size()); }
  int NumCells() const { return static_cast<int>(cells_.size()); }

  const Fd& fd(FdId f) const { return fds_[Checked(f, NumFds())]; }
  const Cell& cell(CellId c) const { return cells_[Checked(c, NumCells())]; }

  /// Cells flagged by an FD (edges from the left), in ViolatingCells
  /// order: row-ascending.
  ConstSpan<CellId> CellsOfFd(FdId f) const {
    const size_t i = static_cast<size_t>(Checked(f, NumFds()));
    return ConstSpan<CellId>(fd_cell_edges_.data() + fd_cell_offsets_[i],
                             fd_cell_offsets_[i + 1] - fd_cell_offsets_[i]);
  }

  /// FDs flagging a cell (edges from the right), ascending.
  ConstSpan<FdId> FdsOfCell(CellId c) const {
    const size_t i = static_cast<size_t>(Checked(c, NumCells()));
    return ConstSpan<FdId>(cell_fd_edges_.data() + cell_fd_offsets_[i],
                           cell_fd_offsets_[i + 1] - cell_fd_offsets_[i]);
  }

  /// Looks up the node for `cell`; returns -1 when the cell is not a
  /// violation node.
  CellId FindCell(const Cell& cell) const;

  /// Approximate heap footprint in bytes (container payloads at their
  /// logical sizes, not allocator metadata — Partition::ApproxBytes'
  /// convention, DESIGN.md §8), the all-active template included. A
  /// pure function of the graph content: every array, including the
  /// right-sized probe table, is fully determined by the merged input, so
  /// the figure is identical across build paths and thread counts.
  size_t ApproxMemoryBytes() const;

 private:
  friend class GraphView;

  ViolationGraph() = default;

  static int Checked(int i, int bound) {
    UGUIDE_CHECK(i >= 0 && i < bound) << "graph index out of range";
    return i;
  }

  /// Rebuilds the open-addressed cell index right-sized for cells_.
  void RebuildCellIndex();
  /// Probe slot for `cell`: its slot if interned, else the empty slot
  /// where it would go.
  size_t ProbeSlot(const Cell& cell) const;

  std::vector<Fd> fds_;
  std::vector<Cell> cells_;
  /// CSR adjacency, frozen at the merge: FD f's cells are
  /// fd_cell_edges_[fd_cell_offsets_[f], fd_cell_offsets_[f+1]), and
  /// symmetrically for cells. Offset arrays have N+1 entries.
  std::vector<uint32_t> fd_cell_offsets_;
  std::vector<CellId> fd_cell_edges_;
  std::vector<uint32_t> cell_fd_offsets_;
  std::vector<FdId> cell_fd_edges_;
  /// Every node active, both degree arrays at the full adjacency sizes:
  /// what each GraphView starts from.
  GraphActiveState all_active_;
  /// Open-addressed linear-probe cell lookup: power-of-two slot array of
  /// CellIds (-1 empty), keys compared against cells_. Rebuilt right-sized
  /// after the merge for a deterministic footprint.
  std::vector<CellId> index_slots_;
  size_t index_mask_ = 0;
};

/// \brief One strategy run's mutable overlay on a frozen ViolationGraph.
///
/// The interactive strategies deactivate nodes as the expert answers (an
/// invalidated FD disappears together with cells only it flagged), so
/// both sides carry active flags rather than being physically removed.
/// A view starts as a copy of the graph's all-active template — four flat
/// arrays, a fraction of a millisecond on Tax@10k where copying the whole
/// graph took milliseconds — and never touches the graph itself, so any
/// number of runs share one graph concurrently.
///
/// Active flags live in IdBitmaps so selection scans iterate set bits
/// branch-free (ForEachActiveFd/ForEachActiveCell), and both per-cell and
/// per-FD active degrees are maintained incrementally, making every hot
/// query of the strategy loops O(1). The read-only adjacency accessors
/// forward to the graph.
class GraphView {
 public:
  /// Every node active. `graph` must outlive the view.
  explicit GraphView(const ViolationGraph& graph)
      : graph_(&graph), state_(graph.all_active_) {}

  const ViolationGraph& graph() const { return *graph_; }

  int NumFds() const { return graph_->NumFds(); }
  int NumCells() const { return graph_->NumCells(); }
  const Fd& fd(FdId f) const { return graph_->fd(f); }
  const Cell& cell(CellId c) const { return graph_->cell(c); }
  ConstSpan<CellId> CellsOfFd(FdId f) const { return graph_->CellsOfFd(f); }
  ConstSpan<FdId> FdsOfCell(CellId c) const { return graph_->FdsOfCell(c); }

  bool FdActive(FdId f) const {
    return state_.fds.Test(ViolationGraph::Checked(f, NumFds()));
  }
  bool CellActive(CellId c) const {
    return state_.cells.Test(ViolationGraph::Checked(c, NumCells()));
  }

  /// Number of *active* FDs flagging cell `c`. O(1): maintained
  /// incrementally as FDs are deactivated (the hot query of every
  /// cell-strategy selection scan).
  int ActiveDegreeOfCell(CellId c) const {
    return CellActive(c) ? state_.cell_degree[static_cast<size_t>(c)] : 0;
  }

  /// Number of *active* cells flagged by FD `f`. O(1): maintained
  /// incrementally as cells are deactivated, symmetric to
  /// ActiveDegreeOfCell.
  int ActiveDegreeOfFd(FdId f) const {
    return FdActive(f) ? state_.fd_degree[static_cast<size_t>(f)] : 0;
  }

  /// Deactivates an FD; cells left with no active FD are deactivated too.
  void DeactivateFd(FdId f);

  /// Deactivates a single cell (e.g., the expert certified it clean or it
  /// has been resolved). Idempotent.
  void DeactivateCell(CellId c);

  /// Ids of currently active FDs / cells, ascending.
  std::vector<FdId> ActiveFds() const;
  std::vector<CellId> ActiveCells() const;

  /// Calls `fn(FdId)` for every active FD, ascending.
  template <typename Fn>
  void ForEachActiveFd(Fn&& fn) const {
    state_.fds.ForEach(fn);
  }

  /// Calls `fn(CellId)` for every active cell, ascending.
  template <typename Fn>
  void ForEachActiveCell(Fn&& fn) const {
    state_.cells.ForEach(fn);
  }

 private:
  const ViolationGraph* graph_;
  GraphActiveState state_;
};

}  // namespace uguide

#endif  // UGUIDE_VIOLATIONS_BIPARTITE_GRAPH_H_
