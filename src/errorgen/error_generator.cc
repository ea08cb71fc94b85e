#include "errorgen/error_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"

namespace uguide {

namespace {

struct VecHash {
  size_t operator()(const std::vector<ValueCode>& v) const {
    size_t seed = v.size();
    for (ValueCode c : v) HashCombine(seed, c);
    return seed;
  }
};

// Multi-tuple LHS equivalence classes of `fd` on `relation`.
std::vector<std::vector<TupleId>> MultiTupleClasses(const Relation& relation,
                                                    const Fd& fd) {
  std::unordered_map<std::vector<ValueCode>, std::vector<TupleId>, VecHash>
      groups;
  const std::vector<int> cols = fd.lhs.ToVector();
  std::vector<ValueCode> key(cols.size());
  for (TupleId r = 0; r < relation.NumRows(); ++r) {
    for (size_t i = 0; i < cols.size(); ++i) {
      key[i] = relation.Code(r, cols[i]);
    }
    groups[key].push_back(r);
  }
  std::vector<std::vector<TupleId>> classes;
  for (auto& [k, rows] : groups) {
    if (rows.size() >= 2) classes.push_back(std::move(rows));
  }
  std::sort(classes.begin(), classes.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return classes;
}

// A value for the RHS cell guaranteed to differ from every current RHS
// value in the tuple's equivalence class (so the perturbed cell is a strict
// minority there); prefers an existing domain value, falls back to a
// synthetic typo which is unique by construction.
std::string ConflictingValue(const Relation& dirty, int col,
                             const std::vector<TupleId>& cls, Rng& rng,
                             int typo_counter) {
  auto used_in_class = [&](ValueCode code) {
    for (TupleId t : cls) {
      if (dirty.Code(t, col) == code) return true;
    }
    return false;
  };
  if (rng.NextBool(0.5)) {
    // Try a few random rows for an existing value not present in the class.
    for (int attempt = 0; attempt < 8; ++attempt) {
      TupleId r = static_cast<TupleId>(
          rng.NextBounded(static_cast<uint64_t>(dirty.NumRows())));
      if (!used_in_class(dirty.Code(r, col))) return dirty.Value(r, col);
    }
  }
  std::string typo = dirty.Value(cls[0], col);
  typo += "~e";
  typo += std::to_string(typo_counter);
  return typo;
}

Result<DirtyDataset> InjectRandomErrors(const Relation& clean,
                                        const ErrorGenOptions& options) {
  DirtyDataset out{clean, GroundTruth()};
  Rng rng(options.seed);
  const TupleId n = clean.NumRows();
  const int m = clean.NumAttributes();
  const auto target =
      static_cast<size_t>(std::llround(options.error_rate * n));
  int typo_counter = 0;
  size_t placed = 0;
  // Random cells get one of: typo, blank, value copied from another row.
  for (size_t attempt = 0; attempt < 20 * target && placed < target;
       ++attempt) {
    Cell cell{static_cast<TupleId>(rng.NextBounded(static_cast<uint64_t>(n))),
              static_cast<int>(rng.NextBounded(static_cast<uint64_t>(m)))};
    if (out.truth.IsChanged(cell)) continue;
    const ValueCode old_code = out.dirty.Code(cell);
    std::string new_value;
    switch (rng.NextBounded(3)) {
      case 0: {  // typo
        new_value = out.dirty.Value(cell);
        new_value += "~t";
        new_value += std::to_string(typo_counter++);
        break;
      }
      case 1:  // missing value
        new_value = "";
        break;
      default: {  // duplicated value from another row
        TupleId other = static_cast<TupleId>(
            rng.NextBounded(static_cast<uint64_t>(n)));
        new_value = out.dirty.Value(other, cell.col);
        break;
      }
    }
    out.dirty.SetValue(cell.row, cell.col, new_value);
    if (out.dirty.Code(cell) == old_code) continue;  // no-op change
    out.truth.MarkChanged(cell);
    ++placed;
  }
  return out;
}

}  // namespace

const char* ErrorModelName(ErrorModel model) {
  switch (model) {
    case ErrorModel::kUniform:
      return "uniform";
    case ErrorModel::kSystematic:
      return "systematic";
    case ErrorModel::kRandom:
      return "random";
  }
  return "?";
}

void GroundTruth::MarkChanged(const Cell& cell) { changed_.insert(cell); }

bool GroundTruth::IsTupleDirty(TupleId row, int num_attributes) const {
  for (int c = 0; c < num_attributes; ++c) {
    if (changed_.contains(Cell{row, c})) return true;
  }
  return false;
}

std::vector<Cell> GroundTruth::ChangedCells() const {
  std::vector<Cell> out(changed_.begin(), changed_.end());
  std::sort(out.begin(), out.end());
  return out;
}

Result<DirtyDataset> InjectErrors(const Relation& clean, const FdSet& true_fds,
                                  const ErrorGenOptions& options) {
  if (!(options.error_rate >= 0.0 && options.error_rate <= 0.9)) {
    return Status::InvalidArgument("error_rate must be in [0, 0.9]");
  }
  if (!(options.per_fd_cap > 0.0 && options.per_fd_cap <= 1.0)) {
    return Status::InvalidArgument("per_fd_cap must be in (0, 1]");
  }
  if (clean.NumRows() == 0) {
    return Status::InvalidArgument("cannot inject errors into empty relation");
  }
  if (options.model == ErrorModel::kRandom) {
    return InjectRandomErrors(clean, options);
  }

  Rng rng(options.seed);

  // Usable FDs: at least one multi-tuple LHS class, so perturbing a member's
  // RHS creates a real violating pair.
  struct Target {
    Fd fd;
    std::vector<std::vector<TupleId>> classes;
    size_t placed = 0;
  };
  std::vector<Target> targets;
  for (const Fd& fd : true_fds) {
    auto classes = MultiTupleClasses(clean, fd);
    if (!classes.empty()) targets.push_back({fd, std::move(classes), 0});
  }
  if (targets.empty()) {
    return Status::InvalidArgument(
        "no FD has a multi-tuple class; cannot inject FD-detectable errors");
  }

  // Apportion the error budget.
  std::vector<double> weights(targets.size(), 1.0);
  if (options.model == ErrorModel::kSystematic) {
    // Zipf-skew over a shuffled rank assignment: which FDs are error-heavy
    // varies with the seed but a few always dominate.
    std::vector<size_t> ranks(targets.size());
    for (size_t i = 0; i < ranks.size(); ++i) ranks[i] = i;
    rng.Shuffle(ranks);
    for (size_t i = 0; i < targets.size(); ++i) {
      weights[i] =
          1.0 / std::pow(static_cast<double>(ranks[i] + 1), options.zipf_s);
    }
  }

  DirtyDataset out{clean, GroundTruth()};
  const TupleId n = clean.NumRows();
  const auto total_target =
      static_cast<size_t>(std::llround(options.error_rate * n));
  const auto per_fd_cap =
      static_cast<size_t>(std::llround(options.per_fd_cap * n));
  int typo_counter = 0;
  size_t placed = 0;

  for (size_t attempt = 0; attempt < 40 * total_target + 100;
       ++attempt) {
    if (placed >= total_target) break;
    Target& target = targets[rng.NextWeighted(weights)];
    if (target.placed >= per_fd_cap) continue;
    const auto& cls = target.classes[rng.NextBounded(target.classes.size())];
    const TupleId row = cls[rng.NextBounded(cls.size())];
    const Cell cell{row, target.fd.rhs};
    if (out.truth.IsChanged(cell)) continue;
    // The chosen tuple needs at least two witnesses that still agree with
    // it on the FD's LHS *in the dirty table* (earlier injections on other
    // FDs may have perturbed LHS cells) and still carry their pristine RHS
    // value. That keeps the clean value a strict majority, so the injected
    // cell is unambiguously the flagged minority -- no tie-break hazards.
    size_t witnesses = 0;
    for (TupleId t : cls) {
      if (t == row) continue;
      if (out.truth.IsChanged(Cell{t, target.fd.rhs})) continue;
      if (!out.dirty.Agree(row, t, target.fd.lhs)) continue;
      ++witnesses;
    }
    if (witnesses < 2) continue;
    const ValueCode old_code = out.dirty.Code(cell);
    out.dirty.SetValue(cell.row, cell.col,
                       ConflictingValue(out.dirty, cell.col, cls, rng,
                                        typo_counter++));
    UGUIDE_CHECK(out.dirty.Code(cell) != old_code);
    out.truth.MarkChanged(cell);
    ++target.placed;
    ++placed;
  }

  if (placed < total_target) {
    UGUIDE_LOG(Warning) << "error generator placed " << placed << " of "
                        << total_target << " requested errors";
  }
  return out;
}

}  // namespace uguide
