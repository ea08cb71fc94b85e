#include "live/live_relation.h"

#include <utility>

namespace uguide {

LiveRelation::LiveRelation(Relation base)
    : relation_(std::move(base)),
      alive_(static_cast<size_t>(relation_.NumRows()), 1) {}

std::string LiveRelation::Tombstone(TupleId row, int col) {
  return "\x1f!dead:" + std::to_string(row) + ":" + std::to_string(col);
}

MutationReceipt LiveRelation::Apply(const MutationBatch& batch) {
  MutationReceipt receipt;
  const int m = relation_.NumAttributes();
  for (const Mutation& op : batch.ops) {
    switch (op.kind) {
      case MutationKind::kAppend: {
        if (static_cast<int>(op.values.size()) != m) {
          ++receipt.refused;
          break;
        }
        relation_.AddRow(op.values);
        alive_.push_back(1);
        ++receipt.applied;
        break;
      }
      case MutationKind::kUpdate: {
        if (!Alive(op.row) || op.col < 0 || op.col >= m) {
          ++receipt.refused;
          break;
        }
        relation_.SetValue(op.row, op.col, op.value);
        ++receipt.applied;
        break;
      }
      case MutationKind::kDelete: {
        if (!Alive(op.row)) {
          ++receipt.refused;
          break;
        }
        for (int c = 0; c < m; ++c) {
          relation_.SetValue(op.row, c, Tombstone(op.row, c));
        }
        alive_[static_cast<size_t>(op.row)] = 0;
        ++receipt.applied;
        break;
      }
    }
  }
  if (receipt.applied > 0) ++version_;
  receipt.version = version_;
  return receipt;
}

}  // namespace uguide
