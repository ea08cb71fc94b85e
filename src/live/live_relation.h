#ifndef UGUIDE_LIVE_LIVE_RELATION_H_
#define UGUIDE_LIVE_LIVE_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "live/mutation.h"
#include "relation/relation.h"

namespace uguide {

/// \brief A relation that accepts mutations.
///
/// The wrapped Relation is the single source of truth. Deletes are
/// tombstones: the dead row keeps its TupleId but every cell is rewritten
/// to a per-cell-unique sentinel, so the row is a singleton in every
/// projection and vanishes from all stripped partitions and violation
/// sets. The alive bitmap refuses later ops on dead rows.
///
/// Not thread-safe: the owner (LiveDataset) serializes Apply against its
/// epoch construction. Readers never touch a LiveRelation — each epoch
/// snapshots an immutable Relation copy.
class LiveRelation {
 public:
  explicit LiveRelation(Relation base);

  const Relation& relation() const { return relation_; }
  DataVersion version() const { return version_; }
  TupleId NumRows() const { return relation_.NumRows(); }

  bool Alive(TupleId row) const {
    return row >= 0 && row < NumRows() &&
           alive_[static_cast<size_t>(row)] != 0;
  }

  /// Applies `batch` op by op. Invalid ops (dead or out-of-range row,
  /// arity mismatch) are refused individually and counted; the rest of
  /// the batch still applies. The version advances by one iff at least
  /// one op applied.
  MutationReceipt Apply(const MutationBatch& batch);

 private:
  /// The per-cell-unique tombstone value for (row, col). Uses an ASCII
  /// control prefix no CSV-loaded or generated value contains.
  static std::string Tombstone(TupleId row, int col);

  Relation relation_;
  DataVersion version_ = 0;
  std::vector<uint8_t> alive_;
};

}  // namespace uguide

#endif  // UGUIDE_LIVE_LIVE_RELATION_H_
