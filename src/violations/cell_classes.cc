#include "violations/cell_classes.h"

namespace uguide {

namespace {

uint64_t HashFds(ConstSpan<FdId> fds) {
  uint64_t hash = 0x9e3779b97f4a7c15ULL ^ fds.size();
  for (FdId f : fds) {
    hash ^= static_cast<uint64_t>(static_cast<uint32_t>(f));
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
  }
  return hash;
}

}  // namespace

CellClasses::CellClasses(const ViolationGraph& graph) {
  const int num_cells = graph.NumCells();
  class_of_.resize(static_cast<size_t>(num_cells));
  fd_offsets_.push_back(0);

  // Open-addressed table of class ids keyed by the hash of the FD list;
  // a hit is confirmed by comparing the lists. Load factor <= 0.5 even if
  // every cell were its own class.
  size_t slots = 16;
  while (slots < static_cast<size_t>(num_cells) * 2) slots <<= 1;
  const size_t mask = slots - 1;
  std::vector<int> table(slots, -1);
  std::vector<uint64_t> class_hash;
  for (CellId c = 0; c < num_cells; ++c) {
    const ConstSpan<FdId> fds = graph.FdsOfCell(c);
    const uint64_t hash = HashFds(fds);
    size_t slot = hash & mask;
    int k = table[slot];
    while (k >= 0 &&
           (class_hash[static_cast<size_t>(k)] != hash || Fds(k) != fds)) {
      slot = (slot + 1) & mask;
      k = table[slot];
    }
    if (k < 0) {
      // First sighting: classes are numbered by their lowest member.
      k = static_cast<int>(class_hash.size());
      table[slot] = k;
      class_hash.push_back(hash);
      fd_edges_.insert(fd_edges_.end(), fds.begin(), fds.end());
      fd_offsets_.push_back(static_cast<uint32_t>(fd_edges_.size()));
    }
    class_of_[static_cast<size_t>(c)] = k;
  }

  // Members CSR: count, prefix-sum, then scatter in ascending cell order so
  // every member list comes out ascending.
  member_offsets_.assign(class_hash.size() + 1, 0);
  for (int k : class_of_) ++member_offsets_[static_cast<size_t>(k) + 1];
  for (size_t i = 1; i < member_offsets_.size(); ++i) {
    member_offsets_[i] += member_offsets_[i - 1];
  }
  members_.resize(static_cast<size_t>(num_cells));
  std::vector<uint32_t> next(member_offsets_.begin(),
                             member_offsets_.end() - 1);
  for (CellId c = 0; c < num_cells; ++c) {
    members_[next[static_cast<size_t>(ClassOf(c))]++] = c;
  }

  // The FD -> classes inverse the same way, scattered in ascending class
  // order.
  class_offsets_.assign(static_cast<size_t>(graph.NumFds()) + 1, 0);
  for (FdId f : fd_edges_) ++class_offsets_[static_cast<size_t>(f) + 1];
  for (size_t i = 1; i < class_offsets_.size(); ++i) {
    class_offsets_[i] += class_offsets_[i - 1];
  }
  classes_.resize(fd_edges_.size());
  next.assign(class_offsets_.begin(), class_offsets_.end() - 1);
  for (int k = 0; k < NumClasses(); ++k) {
    for (FdId f : Fds(k)) classes_[next[static_cast<size_t>(f)]++] = k;
  }
}

}  // namespace uguide
