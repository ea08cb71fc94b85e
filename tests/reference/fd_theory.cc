#include "reference/fd_theory.h"

#include <unordered_map>
#include <vector>

namespace uguide {

Relation BuildArmstrongRelation(const Schema& schema, const FdSet& fds) {
  const int m = schema.NumAttributes();
  const AttributeSet full = AttributeSet::Full(m);
  std::vector<AttributeSet> closed = SaturatedSets(fds, m);

  Relation rel((schema));
  std::vector<std::string> row(static_cast<size_t>(m));

  auto base_value = [](int c) {
    std::string v = "a";
    v += std::to_string(c);
    return v;
  };

  // Base tuple: value "a<c>" in every column.
  for (int c = 0; c < m; ++c) {
    row[static_cast<size_t>(c)] = base_value(c);
  }
  rel.AddRow(row);

  // One witness tuple per proper closed set W: agrees with the base tuple
  // exactly on W and holds a tuple-unique value elsewhere.
  int k = 0;
  for (const AttributeSet& w : closed) {
    if (w == full) continue;
    for (int c = 0; c < m; ++c) {
      if (w.Contains(c)) {
        row[static_cast<size_t>(c)] = base_value(c);
      } else {
        std::string v = "b";
        v += std::to_string(k);
        v += "_";
        v += std::to_string(c);
        row[static_cast<size_t>(c)] = std::move(v);
      }
    }
    rel.AddRow(row);
    ++k;
  }
  return rel;
}

bool FdHoldsOn(const Relation& relation, const Fd& fd) {
  // Group rows by their LHS projection; within a group all RHS codes must
  // match. The LHS projection is hashed as the sequence of codes.
  struct VecHash {
    size_t operator()(const std::vector<ValueCode>& v) const {
      size_t seed = v.size();
      for (ValueCode c : v) HashCombine(seed, c);
      return seed;
    }
  };
  std::unordered_map<std::vector<ValueCode>, ValueCode, VecHash> seen;
  const std::vector<int> lhs_cols = fd.lhs.ToVector();
  std::vector<ValueCode> key(lhs_cols.size());
  for (TupleId r = 0; r < relation.NumRows(); ++r) {
    for (size_t i = 0; i < lhs_cols.size(); ++i) {
      key[i] = relation.Code(r, lhs_cols[i]);
    }
    ValueCode rhs_code = relation.Code(r, fd.rhs);
    auto [it, inserted] = seen.emplace(key, rhs_code);
    if (!inserted && it->second != rhs_code) return false;
  }
  return true;
}

bool IsArmstrongRelation(const Relation& relation, const FdSet& fds) {
  const int m = relation.NumAttributes();
  UGUIDE_CHECK(m <= 20) << "IsArmstrongRelation is exponential; m too large";
  ClosureEngine engine(fds);
  const uint64_t limit = uint64_t{1} << m;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    AttributeSet lhs(mask);
    for (int a = 0; a < m; ++a) {
      if (lhs.Contains(a)) continue;
      Fd fd(lhs, a);
      if (engine.Implies(fd) != FdHoldsOn(relation, fd)) return false;
    }
  }
  return true;
}

bool IsMinimal(const ClosureEngine& engine, const Fd& fd) {
  if (!engine.Implies(fd)) return false;
  for (int a : fd.lhs) {
    if (engine.Implies(Fd(fd.lhs.Without(a), fd.rhs))) return false;
  }
  return true;
}

Fd Minimize(const ClosureEngine& engine, const Fd& fd) {
  UGUIDE_CHECK(engine.Implies(fd))
      << "Minimize on non-implied FD " << fd.ToString();
  Fd reduced = fd;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int a : reduced.lhs) {
      Fd candidate(reduced.lhs.Without(a), reduced.rhs);
      if (engine.Implies(candidate)) {
        reduced = candidate;
        changed = true;
        break;
      }
    }
  }
  return reduced;
}

FdSet MinimalCover(const ClosureEngine& engine) {
  // Left-reduce every FD, deduplicating as we go.
  FdSet reduced;
  for (const Fd& fd : engine.fds()) {
    reduced.Add(Minimize(engine, fd));
  }
  // Drop redundant FDs: fd is redundant if the remaining FDs still imply it.
  std::vector<Fd> kept = reduced.fds();
  for (size_t i = 0; i < kept.size();) {
    FdSet without;
    for (size_t j = 0; j < kept.size(); ++j) {
      if (j != i) without.Add(kept[j]);
    }
    if (ClosureEngine(without).Implies(kept[i])) {
      kept.erase(kept.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return FdSet(kept);
}

bool EquivalentTo(const ClosureEngine& a, const ClosureEngine& b) {
  for (const Fd& fd : a.fds()) {
    if (!b.Implies(fd)) return false;
  }
  for (const Fd& fd : b.fds()) {
    if (!a.Implies(fd)) return false;
  }
  return true;
}

}  // namespace uguide
