#ifndef UGUIDE_LIVE_MUTATION_H_
#define UGUIDE_LIVE_MUTATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace uguide {

/// Monotonically increasing version of a live relation's content. Version 0
/// is the immutable base; every applied mutation batch produces version+1.
using DataVersion = uint64_t;

/// The three mutation kinds a live relation accepts.
enum class MutationKind { kAppend, kUpdate, kDelete };

/// \brief One mutation operation.
///
/// `kAppend` adds a row from `values` (one per attribute). `kUpdate`
/// overwrites cell (`row`, `col`) with `value`. `kDelete` tombstones `row`:
/// the row keeps its TupleId (so cells, journals and reports stay stable)
/// but every one of its cells is rewritten to a per-cell-unique sentinel,
/// making the row a singleton in every projection — stripped partitions,
/// and therefore every violation set, forget it naturally.
struct Mutation {
  MutationKind kind = MutationKind::kUpdate;
  TupleId row = 0;                  ///< kUpdate / kDelete target.
  int col = 0;                      ///< kUpdate target column.
  std::string value;                ///< kUpdate replacement value.
  std::vector<std::string> values;  ///< kAppend row values.

  static Mutation Append(std::vector<std::string> values) {
    Mutation m;
    m.kind = MutationKind::kAppend;
    m.values = std::move(values);
    return m;
  }
  static Mutation Update(TupleId row, int col, std::string value) {
    Mutation m;
    m.kind = MutationKind::kUpdate;
    m.row = row;
    m.col = col;
    m.value = std::move(value);
    return m;
  }
  static Mutation Delete(TupleId row) {
    Mutation m;
    m.kind = MutationKind::kDelete;
    m.row = row;
    return m;
  }
};

/// A batch of mutations applied atomically as one epoch step.
struct MutationBatch {
  std::vector<Mutation> ops;
};

/// \brief The outcome of applying one batch.
struct MutationReceipt {
  /// The data version after the batch (unchanged when nothing applied).
  DataVersion version = 0;
  int applied = 0;
  /// Ops rejected individually (dead/out-of-range row, arity mismatch);
  /// the rest of the batch still applies.
  int refused = 0;
};

}  // namespace uguide

#endif  // UGUIDE_LIVE_MUTATION_H_
