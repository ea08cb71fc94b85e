#ifndef UGUIDE_VIOLATIONS_CELL_CLASSES_H_
#define UGUIDE_VIOLATIONS_CELL_CLASSES_H_

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "violations/bipartite_graph.h"

namespace uguide {

/// \brief The cells of a ViolationGraph grouped by their flagging-FD list.
///
/// Two cells fall into the same class iff their FdsOfCell lists are equal.
/// Everything a cell strategy derives from a cell's adjacency (a sum over
/// its active FDs, its active degree) is then bitwise equal across a
/// class, so the strategies compute it once per class instead of once per
/// cell (DESIGN.md §14.2). On Tax@10k the 111k graph cells fall into ~9k
/// classes.
///
/// Classes are numbered in order of their lowest member, and each class's
/// members are listed ascending. ClassesOfFd inverts Fds, so a strategy
/// finds the classes an answer touched from the FDs it touched. The index
/// is a snapshot of the graph's frozen adjacency; active flags play no
/// part in it, so one index serves every run over the graph while their
/// views deactivate nodes. It lives in the dataset's ViolationArtifact,
/// built once beside the graph.
class CellClasses {
 public:
  explicit CellClasses(const ViolationGraph& graph);

  int NumClasses() const {
    return static_cast<int>(member_offsets_.size()) - 1;
  }

  /// The class of cell `c`.
  int ClassOf(CellId c) const { return class_of_[static_cast<size_t>(c)]; }

  /// The FDs flagging every member of class `k`, ascending (the members'
  /// common FdsOfCell list).
  ConstSpan<FdId> Fds(int k) const { return Slice(fd_offsets_, fd_edges_, k); }

  /// The cells of class `k`, ascending.
  ConstSpan<CellId> Members(int k) const {
    return Slice(member_offsets_, members_, k);
  }

  /// The classes whose FD list contains FD `f`, ascending (the inverse of
  /// Fds).
  ConstSpan<int> ClassesOfFd(FdId f) const {
    return Slice(class_offsets_, classes_, f);
  }

  /// Payload bytes (ViolationGraph's convention).
  size_t ApproxMemoryBytes() const {
    return (class_of_.size() + fd_edges_.size() + members_.size() +
            classes_.size()) *
               sizeof(int) +
           (fd_offsets_.size() + member_offsets_.size() +
            class_offsets_.size()) *
               sizeof(uint32_t);
  }

 private:
  static ConstSpan<int> Slice(const std::vector<uint32_t>& offsets,
                              const std::vector<int>& items, int k) {
    UGUIDE_CHECK(k >= 0 && static_cast<size_t>(k) + 1 < offsets.size())
        << "cell class out of range";
    const size_t i = static_cast<size_t>(k);
    return ConstSpan<int>(items.data() + offsets[i],
                          offsets[i + 1] - offsets[i]);
  }

  std::vector<int> class_of_;
  /// CSR: class k's FD list is fd_edges_[fd_offsets_[k], fd_offsets_[k+1]),
  /// its members members_[member_offsets_[k], member_offsets_[k+1]), and
  /// FD f's classes classes_[class_offsets_[f], class_offsets_[f+1]).
  std::vector<uint32_t> fd_offsets_;
  std::vector<FdId> fd_edges_;
  std::vector<uint32_t> member_offsets_;
  std::vector<CellId> members_;
  std::vector<uint32_t> class_offsets_;
  std::vector<int> classes_;
};

}  // namespace uguide

#endif  // UGUIDE_VIOLATIONS_CELL_CLASSES_H_
