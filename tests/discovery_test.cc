#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "datagen/generators.h"
#include "discovery/partition.h"
#include "discovery/tane.h"
#include "fd/closure.h"
#include "reference/fd_theory.h"
#include "reference/relaxation.h"

namespace uguide {
namespace {

Relation MakeRelation(const std::vector<std::string>& attrs,
                      const std::vector<std::vector<std::string>>& rows) {
  Relation rel(Schema::Make(attrs).ValueOrDie());
  for (const auto& row : rows) rel.AddRow(row);
  return rel;
}

// Naive g3: minimum tuples to delete so the FD holds exactly, computed by
// majority counting per LHS group.
double NaiveG3(const Relation& rel, const Fd& fd) {
  std::unordered_map<std::string, std::unordered_map<std::string, int>>
      groups;
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    std::string key;
    for (int c : fd.lhs) {
      key += rel.Value(r, c);
      key += '\x1f';
    }
    groups[key][rel.Value(r, fd.rhs)]++;
  }
  int removed = 0;
  for (const auto& [key, counts] : groups) {
    int total = 0, best = 0;
    for (const auto& [value, count] : counts) {
      total += count;
      best = std::max(best, count);
    }
    removed += total - best;
  }
  return static_cast<double>(removed) / rel.NumRows();
}

// --- Partition --------------------------------------------------------------

TEST(PartitionTest, SingleColumnStripsSingletons) {
  Relation rel = MakeRelation({"a"}, {{"x"}, {"x"}, {"y"}, {"z"}, {"x"}});
  Partition p = Partition::ForColumn(rel, 0);
  ASSERT_EQ(p.NumClasses(), 1u);  // only the "x" class survives stripping
  EXPECT_EQ(p.Class(0), (std::vector<TupleId>{0, 1, 4}));
  EXPECT_EQ(p.StrippedSize(), 3u);
  EXPECT_FALSE(p.IsKey());
}

TEST(PartitionTest, KeyColumn) {
  Relation rel = MakeRelation({"a"}, {{"1"}, {"2"}, {"3"}});
  Partition p = Partition::ForColumn(rel, 0);
  EXPECT_TRUE(p.IsKey());
  EXPECT_EQ(p.KeyError(), 0.0);
}

TEST(PartitionTest, EmptySetPartition) {
  Partition p = Partition::ForEmptySet(4);
  ASSERT_EQ(p.NumClasses(), 1u);
  EXPECT_EQ(p.Class(0).size(), 4u);
}

TEST(PartitionTest, CsrInvariantsAndDeterministicFootprint) {
  Rng rng(17);
  Relation rel(Schema::Make({"a", "b", "c"}).ValueOrDie());
  for (int i = 0; i < 200; ++i) {
    rel.AddRow({std::to_string(rng.NextBounded(7)),
                std::to_string(rng.NextBounded(4)),
                std::to_string(rng.NextBounded(3))});
  }
  const AttributeSet abc = AttributeSet::Single(0).With(1).With(2);
  Partition p = Partition::ForAttributes(rel, abc);
  // CSR well-formedness: offsets bracket the element array and every
  // class has >= 2 members listed ascending.
  ASSERT_EQ(p.offsets().size(), p.NumClasses() + 1);
  EXPECT_EQ(p.offsets()[0], 0u);
  EXPECT_EQ(p.offsets()[p.NumClasses()], p.elements().size());
  EXPECT_EQ(p.StrippedSize(), p.elements().size());
  for (size_t i = 0; i < p.NumClasses(); ++i) {
    const Partition::ClassView cls = p.Class(i);
    ASSERT_GE(cls.size(), 2u);
    for (size_t j = 1; j < cls.size(); ++j) {
      EXPECT_LT(cls[j - 1], cls[j]);
    }
  }
  // Column partitions additionally list classes by first (smallest)
  // member ascending — the first-seen order of the scan.
  Partition col = Partition::ForColumn(rel, 0);
  TupleId prev_first = -1;
  for (size_t i = 0; i < col.NumClasses(); ++i) {
    EXPECT_LT(prev_first, col.Class(i).front());
    prev_first = col.Class(i).front();
  }
  // ApproxBytes is size-based: mathematically equal partitions report the
  // same figure regardless of the product order that produced them.
  Partition via_product =
      Partition::ForColumn(rel, 2).Product(
          Partition::ForColumn(rel, 1).Product(Partition::ForColumn(rel, 0)));
  EXPECT_EQ(via_product.ApproxBytes(), p.ApproxBytes());
  EXPECT_EQ(via_product.StrippedSize(), p.StrippedSize());
  EXPECT_EQ(via_product.NumClasses(), p.NumClasses());
}

TEST(PartitionTest, ProductRefines) {
  Relation rel = MakeRelation(
      {"a", "b"},
      {{"1", "x"}, {"1", "x"}, {"1", "y"}, {"2", "x"}, {"2", "x"}});
  Partition pa = Partition::ForColumn(rel, 0);
  Partition pb = Partition::ForColumn(rel, 1);
  Partition pab = pa.Product(pb);
  // Classes: {0,1} (1,x) and {3,4} (2,x); (1,y) is a singleton.
  EXPECT_EQ(pab.NumClasses(), 2u);
  EXPECT_EQ(pab.StrippedSize(), 4u);
}

TEST(PartitionTest, ProductIsCommutativeInContent) {
  Rng rng(3);
  Relation rel(Schema::Make({"a", "b"}).ValueOrDie());
  for (int i = 0; i < 100; ++i) {
    rel.AddRow({std::to_string(rng.NextBounded(5)),
                std::to_string(rng.NextBounded(4))});
  }
  Partition pa = Partition::ForColumn(rel, 0);
  Partition pb = Partition::ForColumn(rel, 1);
  Partition ab = pa.Product(pb);
  Partition ba = pb.Product(pa);
  EXPECT_EQ(ab.NumClasses(), ba.NumClasses());
  EXPECT_EQ(ab.StrippedSize(), ba.StrippedSize());
}

TEST(PartitionTest, FdErrorMatchesNaiveG3) {
  Rng rng(7);
  Relation rel(Schema::Make({"a", "b", "c"}).ValueOrDie());
  for (int i = 0; i < 200; ++i) {
    rel.AddRow({std::to_string(rng.NextBounded(6)),
                std::to_string(rng.NextBounded(3)),
                std::to_string(rng.NextBounded(4))});
  }
  PartitionStore store(&rel);
  for (int lhs = 0; lhs < 3; ++lhs) {
    for (int rhs = 0; rhs < 3; ++rhs) {
      if (lhs == rhs) continue;
      Fd fd(AttributeSet::Single(lhs), rhs);
      EXPECT_NEAR(G3Error(store, fd), NaiveG3(rel, fd), 1e-12)
          << fd.ToString();
    }
  }
  Fd two(AttributeSet({0, 1}), 2);
  EXPECT_NEAR(G3Error(store, two), NaiveG3(rel, two), 1e-12);
}

TEST(PartitionTest, FdErrorZeroForHoldingFd) {
  Relation rel = MakeRelation(
      {"zip", "city"},
      {{"1", "ny"}, {"1", "ny"}, {"2", "la"}, {"2", "la"}});
  PartitionStore store(&rel);
  EXPECT_EQ(G3Error(store, Fd({0}, 1)), 0.0);
}

// TANE's lemma on seeded random relations, for every X with |X| <= 2 and
// every A outside X: excess(X) - excess(XA) <= removed(X -> A) <=
// excess(X), removed == 0 exactly when the two excesses agree, and the
// column-direct removal count is FdError's and NaiveG3's numerator. One
// scratch serves every count-only query, so a query that leaves it dirty
// breaks a later one.
class ExcessBoundsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExcessBoundsTest, BoundRemovalsAndMatchG3) {
  Rng rng(GetParam());
  const int m = 5;
  Relation rel(Schema::Make({"a", "b", "c", "d", "e"}).ValueOrDie());
  const int rows = 30 + static_cast<int>(rng.NextBounded(90));
  std::vector<uint64_t> domain;
  for (int c = 0; c < m; ++c) domain.push_back(1 + rng.NextBounded(12));
  for (int i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c + 1 < m; ++c) {
      row.push_back(std::to_string(rng.NextBounded(domain[c])));
    }
    // e is a function of a, so a -> e and every widening of it hold.
    row.push_back(std::to_string(std::stoi(row[0]) % 3));
    rel.AddRow(row);
  }
  const double n = static_cast<double>(rel.NumRows());
  CountScratch scratch;
  size_t holding = 0;
  size_t violated = 0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    const AttributeSet x(mask);
    if (x.Size() > 2) continue;
    const Partition px = Partition::ForAttributes(rel, x);
    for (int a = 0; a < m; ++a) {
      if (x.Contains(a)) continue;
      const Fd fd(x, a);
      const Partition pa = Partition::ForColumn(rel, a);
      const Partition pxa = px.Product(pa);
      EXPECT_EQ(px.ProductExcess(pa, scratch), pxa.Excess()) << fd.ToString();
      EXPECT_EQ(pa.ProductExcess(px, scratch), pxa.Excess()) << fd.ToString();
      const size_t removed = px.Removals(rel, a, scratch);
      ASSERT_GE(px.Excess(), pxa.Excess()) << fd.ToString();
      EXPECT_LE(px.Excess() - pxa.Excess(), removed) << fd.ToString();
      EXPECT_LE(removed, px.Excess()) << fd.ToString();
      EXPECT_EQ(removed == 0, px.Excess() == pxa.Excess()) << fd.ToString();
      EXPECT_EQ(static_cast<double>(removed) / n, px.FdError(pxa))
          << fd.ToString();
      EXPECT_EQ(static_cast<double>(removed) / n, NaiveG3(rel, fd))
          << fd.ToString();
      ++(removed == 0 ? holding : violated);
    }
  }
  EXPECT_GT(holding, 0u);
  EXPECT_GT(violated, 0u);
  EXPECT_EQ(scratch.touched.size(), 0u);
  EXPECT_TRUE(std::all_of(scratch.label.begin(), scratch.label.end(),
                          [](int32_t l) { return l == -1; }));
  EXPECT_TRUE(std::all_of(scratch.count.begin(), scratch.count.end(),
                          [](uint32_t c) { return c == 0; }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExcessBoundsTest,
                         ::testing::Range<uint64_t>(1, 21));

// --- PartitionStore ---------------------------------------------------------

void ExpectSamePartition(const Partition& got, const Partition& want,
                         const std::string& what) {
  EXPECT_EQ(got.elements(), want.elements()) << what;
  EXPECT_EQ(got.offsets(), want.offsets()) << what;
}

Relation TinyRelation() {
  return MakeRelation({"a", "b", "c"}, {{"1", "x", "p"},
                                        {"1", "x", "q"},
                                        {"2", "y", "p"},
                                        {"2", "z", "q"},
                                        {"3", "z", "p"}});
}

TEST(PartitionStoreTest, PutGetRoundTrip) {
  const Relation rel = TinyRelation();
  PartitionStore store(&rel);
  const AttributeSet a({0});
  const Partition column = Partition::ForColumn(rel, 0);
  store.Put(a, Partition::ForColumn(rel, 0));
  std::shared_ptr<const Partition> p = store.Get(a);
  ASSERT_NE(p, nullptr);
  ExpectSamePartition(*p, column, "put");
  EXPECT_EQ(store.misses(), 0u);
  // Erase reports the entry's bytes once; a held handle stays valid.
  EXPECT_EQ(store.Erase(a), column.ApproxBytes());
  EXPECT_EQ(store.Erase(a), 0u);
  EXPECT_EQ(store.Size(), 0u);
  ExpectSamePartition(*p, column, "erased");
}

TEST(PartitionStoreTest, BuildsOnMissThroughTheBuilder) {
  const Relation rel = TinyRelation();
  PartitionStore store(&rel);
  const AttributeSet ab({0, 1});
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return Partition::ForAttributes(rel, ab);
  };
  std::shared_ptr<const Partition> first = store.Get(ab, build);
  EXPECT_EQ(store.Get(ab, build), first);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(store.misses(), 1u);
  ExpectSamePartition(*first, Partition::ForAttributes(rel, ab), "built");
  // An erased set is built again on the next Get.
  store.Erase(ab);
  ExpectSamePartition(*store.Get(ab, build), *first, "rebuilt");
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(store.misses(), 2u);
}

TEST(PartitionStoreTest, ConcurrentGetsShareOneEntryPerSet) {
  Rng rng(3);
  Relation rel(Schema::Make({"a", "b", "c", "d", "e"}).ValueOrDie());
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < 5; ++c) {
      row.push_back(std::to_string(rng.NextBounded(3 + c)));
    }
    rel.AddRow(row);
  }
  // Every LHS of up to three attributes; each thread walks the list from
  // its own offset, so all four overlap on every set.
  std::vector<AttributeSet> sets;
  for (uint64_t mask = 0; mask < 32; ++mask) {
    if (AttributeSet(mask).Size() <= 3) sets.push_back(AttributeSet(mask));
  }
  PartitionStore store(&rel);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::shared_ptr<const Partition>>> got(
      kThreads, std::vector<std::shared_ptr<const Partition>>(sets.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < sets.size(); ++k) {
        const size_t i = (k + static_cast<size_t>(t) * 7) % sets.size();
        got[static_cast<size_t>(t)][i] = store.Get(sets[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < sets.size(); ++i) {
    const Partition want = Partition::ForAttributes(rel, sets[i]);
    for (int t = 0; t < kThreads; ++t) {
      const std::shared_ptr<const Partition>& handle =
          got[static_cast<size_t>(t)][i];
      const std::string what =
          sets[i].ToString() + " on thread " + std::to_string(t);
      ASSERT_NE(handle, nullptr) << what;
      ExpectSamePartition(*handle, want, what);
      // A build that lost a race hands out the winner's entry.
      EXPECT_EQ(handle, got[0][i]) << what;
    }
  }
  EXPECT_EQ(store.Size(), sets.size());
}

// --- TANE -------------------------------------------------------------------

// Brute-force minimal FD discovery for cross-checking.
FdSet BruteForceFds(const Relation& rel, double max_error) {
  const int m = rel.NumAttributes();
  PartitionStore store(&rel);
  std::vector<Fd> valid;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    AttributeSet lhs(mask);
    for (int a = 0; a < m; ++a) {
      if (lhs.Contains(a)) continue;
      Fd fd(lhs, a);
      if (G3Error(store, fd) <= max_error) valid.push_back(fd);
    }
  }
  FdSet minimal;
  for (const Fd& fd : valid) {
    bool is_minimal = true;
    for (const Fd& other : valid) {
      if (other.rhs == fd.rhs && other.lhs.IsStrictSubsetOf(fd.lhs)) {
        is_minimal = false;
        break;
      }
    }
    if (is_minimal) minimal.Add(fd);
  }
  return minimal;
}

TEST(TaneTest, DiscoversSimpleFd) {
  Relation rel = MakeRelation(
      {"zip", "city", "name"},
      {{"1", "ny", "a"}, {"1", "ny", "b"}, {"2", "la", "c"}, {"2", "la", "d"},
       {"3", "sf", "e"}});
  FdSet fds = DiscoverFds(rel).ValueOrDie();
  EXPECT_TRUE(fds.Contains(Fd({0}, 1)));  // zip -> city
  // name is a key, so name -> zip and name -> city must be found.
  EXPECT_TRUE(fds.Contains(Fd({2}, 0)));
  EXPECT_TRUE(fds.Contains(Fd({2}, 1)));
}

TEST(TaneTest, DiscoversConstantColumn) {
  Relation rel = MakeRelation({"a", "b"}, {{"1", "k"}, {"2", "k"}});
  FdSet fds = DiscoverFds(rel).ValueOrDie();
  EXPECT_TRUE(fds.Contains(Fd(AttributeSet(), 1)));
}

TEST(TaneTest, AllDiscoveredFdsHold) {
  Relation rel = MakeRelation(
      {"a", "b", "c", "d"},
      {{"1", "x", "p", "u"}, {"1", "x", "p", "v"}, {"2", "x", "q", "u"},
       {"2", "y", "q", "v"}, {"3", "y", "r", "u"}});
  FdSet fds = DiscoverFds(rel).ValueOrDie();
  EXPECT_FALSE(fds.Empty());
  for (const Fd& fd : fds) {
    EXPECT_TRUE(FdHoldsOn(rel, fd)) << fd.ToString();
  }
}

TEST(TaneTest, ResultsAreMinimal) {
  Relation rel = MakeRelation(
      {"a", "b", "c"},
      {{"1", "x", "p"}, {"1", "x", "p"}, {"2", "y", "q"}, {"3", "y", "q"}});
  FdSet fds = DiscoverFds(rel).ValueOrDie();
  for (const Fd& fd : fds) {
    EXPECT_TRUE(fds.IsMinimalIn(fd)) << fd.ToString();
    // Semantically minimal too: removing any LHS attribute breaks it.
    for (int a : fd.lhs) {
      EXPECT_FALSE(FdHoldsOn(rel, Fd(fd.lhs.Without(a), fd.rhs)))
          << fd.ToString();
    }
  }
}

TEST(TaneTest, EmptyRelation) {
  Relation rel(Schema::Make({"a", "b"}).ValueOrDie());
  FdSet fds = DiscoverFds(rel).ValueOrDie();
  EXPECT_TRUE(fds.Empty());
}

TEST(TaneTest, SingleRowYieldsConstantFds) {
  Relation rel = MakeRelation({"a", "b"}, {{"1", "x"}});
  FdSet fds = DiscoverFds(rel).ValueOrDie();
  EXPECT_TRUE(fds.Contains(Fd(AttributeSet(), 0)));
  EXPECT_TRUE(fds.Contains(Fd(AttributeSet(), 1)));
  EXPECT_EQ(fds.Size(), 2u);
}

TEST(TaneTest, RejectsBadOptions) {
  Relation rel = MakeRelation({"a"}, {{"1"}});
  TaneOptions bad;
  bad.max_error = 1.5;
  EXPECT_FALSE(DiscoverFds(rel, bad).ok());
  bad.max_error = -0.1;
  EXPECT_FALSE(DiscoverFds(rel, bad).ok());
}

TEST(TaneTest, MaxLhsSizeBounds) {
  Rng rng(11);
  Relation rel(Schema::Make({"a", "b", "c", "d", "e"}).ValueOrDie());
  for (int i = 0; i < 60; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < 5; ++c) {
      row.push_back(std::to_string(rng.NextBounded(3)));
    }
    rel.AddRow(row);
  }
  TaneOptions opts;
  opts.max_lhs_size = 2;
  FdSet fds = DiscoverFds(rel, opts).ValueOrDie();
  for (const Fd& fd : fds) {
    EXPECT_LE(fd.lhs.Size(), 2);
  }
}

TEST(TaneTest, ApproximateModeFindsAfds) {
  // zip -> city holds for 9 of 10 tuples in the "1" group.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 9; ++i) rows.push_back({"1", "ny", std::to_string(i)});
  rows.push_back({"1", "boston", "9"});
  for (int i = 0; i < 10; ++i) {
    rows.push_back({"2", "la", std::to_string(100 + i)});
  }
  Relation rel = MakeRelation({"zip", "city", "id"}, rows);
  EXPECT_FALSE(DiscoverFds(rel).ValueOrDie().Contains(Fd({0}, 1)));
  TaneOptions approx;
  approx.max_error = 0.10;
  FdSet afds = DiscoverFds(rel, approx).ValueOrDie();
  EXPECT_TRUE(afds.Contains(Fd({0}, 1)));
}

TEST(TaneTest, PrunedParentEmitsNothing) {
  // Regression for the pruned-subset fallback: a constant column `k` makes
  // {} -> k hold exactly, which empties C+({k}) (Remove(k) then intersect
  // with {k}), so the {k} node is dropped at the level-1 prune step. Pin
  // that (a) it emits nothing beyond the constant FD itself — candidates
  // intersect to the empty set once C+ is empty — and (b) no superset
  // containing k is ever generated, i.e. no FD with k in its LHS appears
  // (any such FD would be non-minimal anyway).
  Relation rel = MakeRelation(
      {"a", "b", "k"},
      {{"1", "x", "c"}, {"1", "x", "c"}, {"2", "y", "c"}, {"2", "z", "c"}});
  FdSet fds = DiscoverFds(rel).ValueOrDie();
  EXPECT_TRUE(fds.Contains(Fd(AttributeSet(), 2)));  // {} -> k
  for (const Fd& fd : fds) {
    EXPECT_FALSE(fd.lhs.Contains(2))
        << fd.ToString() << " has the pruned constant column in its LHS";
    EXPECT_TRUE(fds.IsMinimalIn(fd)) << fd.ToString();
  }
}

// Parallel discovery must be a pure wall-clock optimization: identical
// FdSets for every thread count, in exact and approximate mode, on both a
// structured (Tax generator) and an adversarially random relation.
void ExpectSameFds(const FdSet& a, const FdSet& b, const std::string& what) {
  EXPECT_EQ(a.Size(), b.Size()) << what;
  for (const Fd& fd : a) {
    EXPECT_TRUE(b.Contains(fd)) << what << ": " << fd.ToString();
  }
}

TEST(TaneTest, ThreadCountDoesNotChangeResultOnTax) {
  DataGenOptions gen;
  gen.rows = 2000;
  Relation rel = GenerateTax(gen);
  for (double max_error : {0.0, 0.05}) {
    TaneOptions serial;
    serial.max_lhs_size = 3;
    serial.max_error = max_error;
    serial.num_threads = 1;
    FdSet baseline = DiscoverFds(rel, serial).ValueOrDie();
    EXPECT_FALSE(baseline.Empty());
    for (int threads : {4, 0}) {  // 0 = hardware concurrency
      TaneOptions parallel = serial;
      parallel.num_threads = threads;
      FdSet got = DiscoverFds(rel, parallel).ValueOrDie();
      ExpectSameFds(baseline, got,
                    "tax, threads=" + std::to_string(threads) +
                        ", max_error=" + std::to_string(max_error));
    }
  }
}

TEST(TaneTest, ThreadCountDoesNotChangeResultOnRandomRelation) {
  Rng rng(1234);  // fixed seed: the relation is identical on every run
  const int m = 6;
  Relation rel(
      Schema::Make({"a", "b", "c", "d", "e", "f"}).ValueOrDie());
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < m; ++c) {
      row.push_back(std::to_string(rng.NextBounded(2 + c)));
    }
    rel.AddRow(row);
  }
  for (double max_error : {0.0, 0.15}) {
    TaneOptions serial;
    serial.max_error = max_error;
    serial.num_threads = 1;
    FdSet baseline = DiscoverFds(rel, serial).ValueOrDie();
    for (int threads : {4, 0}) {
      TaneOptions parallel = serial;
      parallel.num_threads = threads;
      FdSet got = DiscoverFds(rel, parallel).ValueOrDie();
      ExpectSameFds(baseline, got,
                    "random, threads=" + std::to_string(threads) +
                        ", max_error=" + std::to_string(max_error));
    }
  }
}

TEST(TaneTest, RejectsNegativeThreads) {
  Relation rel = MakeRelation({"a"}, {{"1"}});
  TaneOptions bad;
  bad.num_threads = -2;
  EXPECT_FALSE(DiscoverFds(rel, bad).ok());
}

// Property sweep: TANE output equals brute force on random small tables,
// both exact and approximate. Besides two round thresholds, every
// threshold k / rows that a key-error bound of some check takes is swept
// (k = 0 included), so a bound compared with < where <= is meant, or the
// wrong bound, changes some output.
class TaneBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

// The thresholds k / rows for every k that excess(X) - excess(XA) or
// excess(X) takes over the (X, A) pairs of `rel`, below 1.
std::set<double> BoundThresholds(const Relation& rel) {
  const int m = rel.NumAttributes();
  std::set<size_t> ks;
  for (uint64_t mask = 0; mask < (uint64_t{1} << m); ++mask) {
    const AttributeSet x(mask);
    const Partition px = Partition::ForAttributes(rel, x);
    for (int a = 0; a < m; ++a) {
      if (x.Contains(a)) continue;
      ks.insert(px.Excess());
      ks.insert(px.Excess() -
                Partition::ForAttributes(rel, x.With(a)).Excess());
    }
  }
  std::set<double> thresholds;
  for (size_t k : ks) {
    if (k < static_cast<size_t>(rel.NumRows())) {
      thresholds.insert(static_cast<double>(k) /
                        static_cast<double>(rel.NumRows()));
    }
  }
  return thresholds;
}

TEST_P(TaneBruteForceTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const int m = 4;
  Relation rel(Schema::Make({"a", "b", "c", "d"}).ValueOrDie());
  const int rows = 20 + static_cast<int>(rng.NextBounded(30));
  for (int i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < m; ++c) {
      row.push_back(std::to_string(rng.NextBounded(2 + c)));
    }
    rel.AddRow(row);
  }
  std::set<double> thresholds = BoundThresholds(rel);
  EXPECT_GT(thresholds.size(), 2u);
  thresholds.insert({0.0, 0.15});
  for (double max_error : thresholds) {
    const FdSet brute = BruteForceFds(rel, max_error);
    // Unbounded, and bounded at LHS size 2: that walk's last level is
    // streamed, so its checks see only the count-only excess.
    for (int max_lhs : {TaneOptions().max_lhs_size, 2}) {
      TaneOptions opts;
      opts.max_error = max_error;
      opts.max_lhs_size = max_lhs;
      const FdSet tane = DiscoverFds(rel, opts).ValueOrDie();
      const std::string what = "max_error=" + std::to_string(max_error) +
                               ", max_lhs_size=" + std::to_string(max_lhs);
      size_t expected = 0;
      for (const Fd& fd : brute) {
        if (fd.lhs.Size() > max_lhs) continue;
        ++expected;
        EXPECT_TRUE(tane.Contains(fd)) << fd.ToString() << " missing, "
                                       << what;
      }
      EXPECT_EQ(tane.Size(), expected) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaneBruteForceTest,
                         ::testing::Range<uint64_t>(1, 16));

// --- Relaxation -------------------------------------------------------------

TEST(RelaxationTest, RelaxesToTrueFd) {
  // zip -> city has one dirty tuple, so exact discovery finds the
  // specialization {zip, x} while relaxation recovers zip -> city. (No key
  // column here: a key would shadow the specialization with a smaller
  // minimal FD, which is exactly why GenerateCandidates uses approximate
  // discovery instead of the literal relaxation walk.)
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 21; ++i) {
    std::string zip = std::to_string(i % 4);
    std::string city = "city" + zip;
    rows.push_back({zip, city, std::to_string(i % 7)});
  }
  rows[0][1] = "corrupted";  // one error
  Relation rel = MakeRelation({"zip", "city", "x"}, rows);

  FdSet exact = DiscoverFds(rel).ValueOrDie();
  EXPECT_FALSE(exact.Contains(Fd({0}, 1)));
  ASSERT_TRUE(exact.Contains(Fd({0, 2}, 1)));  // {zip, x} -> city

  RelaxationOptions opts;
  opts.max_error = 0.10;
  FdSet candidates = RelaxFds(rel, exact, opts).ValueOrDie();
  EXPECT_TRUE(candidates.Contains(Fd({0}, 1)));
}

TEST(RelaxationTest, CandidatesRespectThreshold) {
  Rng rng(13);
  Relation rel(Schema::Make({"a", "b", "c"}).ValueOrDie());
  for (int i = 0; i < 80; ++i) {
    rel.AddRow({std::to_string(rng.NextBounded(4)),
                std::to_string(rng.NextBounded(4)),
                std::to_string(rng.NextBounded(3))});
  }
  FdSet exact = DiscoverFds(rel).ValueOrDie();
  RelaxationOptions opts;
  opts.max_error = 0.2;
  FdSet candidates = RelaxFds(rel, exact, opts).ValueOrDie();
  PartitionStore store(&rel);
  for (const Fd& fd : candidates) {
    EXPECT_LE(G3Error(store, fd), 0.2) << fd.ToString();
  }
}

TEST(RelaxationTest, MinimalOnlyKeepsFrontier) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 40; ++i) {
    std::string zip = std::to_string(i % 4);
    rows.push_back({zip, "city" + zip, std::to_string(i)});
  }
  Relation rel = MakeRelation({"zip", "city", "id"}, rows);
  FdSet exact = DiscoverFds(rel).ValueOrDie();
  FdSet minimal = RelaxFds(rel, exact, {}).ValueOrDie();
  for (const Fd& fd : minimal) {
    for (const Fd& other : minimal) {
      if (&fd == &other) continue;
      EXPECT_FALSE(other.rhs == fd.rhs &&
                   other.lhs.IsStrictSubsetOf(fd.lhs))
          << other.ToString() << " subsumes " << fd.ToString();
    }
  }
}

TEST(RelaxationTest, NonMinimalKeepsIntermediates) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 40; ++i) {
    std::string zip = std::to_string(i % 4);
    rows.push_back({zip, "city" + zip, std::to_string(i)});
  }
  Relation rel = MakeRelation({"zip", "city", "id"}, rows);
  FdSet exact = DiscoverFds(rel).ValueOrDie();
  RelaxationOptions all;
  all.minimal_only = false;
  FdSet everything = RelaxFds(rel, exact, all).ValueOrDie();
  FdSet frontier = RelaxFds(rel, exact, {}).ValueOrDie();
  EXPECT_GE(everything.Size(), frontier.Size());
  for (const Fd& fd : frontier) {
    EXPECT_TRUE(everything.Contains(fd));
  }
}

TEST(RelaxationTest, BucketedMinimizationMatchesBruteForce) {
  // Regression test for the RHS-bucketed cross-FD minimization: the emitted
  // FdSet must equal the brute-force all-pairs minimal filter of the
  // complete (non-minimal) frontier, and the emission order must be
  // deterministic run to run.
  for (uint64_t seed : {3u, 17u, 40u}) {
    Rng rng(seed);
    Relation rel(Schema::Make({"a", "b", "c", "d"}).ValueOrDie());
    for (int i = 0; i < 120; ++i) {
      rel.AddRow({std::to_string(rng.NextBounded(3)),
                  std::to_string(rng.NextBounded(4)),
                  std::to_string(rng.NextBounded(3)),
                  std::to_string(rng.NextBounded(5))});
    }
    FdSet exact = DiscoverFds(rel).ValueOrDie();
    RelaxationOptions all;
    all.max_error = 0.3;
    all.minimal_only = false;
    FdSet everything = RelaxFds(rel, exact, all).ValueOrDie();

    RelaxationOptions opts;
    opts.max_error = 0.3;
    FdSet minimal = RelaxFds(rel, exact, opts).ValueOrDie();

    // Brute-force O(k^2) filter over the complete frontier.
    std::vector<Fd> expected;
    for (const Fd& fd : everything) {
      bool is_minimal = true;
      for (const Fd& other : everything) {
        if (other.rhs == fd.rhs && other.lhs.IsStrictSubsetOf(fd.lhs)) {
          is_minimal = false;
          break;
        }
      }
      if (is_minimal) expected.push_back(fd);
    }
    EXPECT_EQ(minimal.Size(), expected.size()) << "seed " << seed;
    for (const Fd& fd : expected) {
      EXPECT_TRUE(minimal.Contains(fd)) << fd.ToString() << " seed " << seed;
    }

    // Order determinism: a second run must emit the identical sequence.
    FdSet again = RelaxFds(rel, exact, opts).ValueOrDie();
    ASSERT_EQ(minimal.Size(), again.Size());
    EXPECT_TRUE(std::equal(minimal.begin(), minimal.end(), again.begin()))
        << "seed " << seed;
  }
}

TEST(RelaxationTest, RejectsBadThreshold) {
  Relation rel = MakeRelation({"a"}, {{"1"}});
  RelaxationOptions opts;
  opts.max_error = 1.0;
  EXPECT_FALSE(RelaxFds(rel, FdSet(), opts).ok());
}

TEST(RelaxationTest, TrueFdCoverageProperty) {
  // Candidate-generation guarantee behind §3.1: with a threshold at or
  // above the true violation rate, approximate discovery (the complete
  // relaxation frontier) yields candidates implying every true FD -- even
  // in the presence of a key column, where the literal relax-from-Sigma_T
  // walk would fall short.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 100; ++i) {
    std::string zip = std::to_string(i % 10);
    std::string state = std::to_string((i % 10) % 3);
    rows.push_back({zip, "city" + zip, state, std::to_string(i)});
  }
  Relation clean = MakeRelation({"zip", "city", "state", "id"}, rows);
  FdSet true_fds = DiscoverFds(clean).ValueOrDie();

  Relation dirty = clean;
  dirty.SetValue(0, 1, "oops");   // corrupt zip->city
  dirty.SetValue(5, 2, "weird");  // corrupt zip->state

  TaneOptions approx;
  approx.max_error = 0.10;
  FdSet candidates = DiscoverFds(dirty, approx).ValueOrDie();
  ClosureEngine candidate_closure(candidates);
  for (const Fd& fd : true_fds) {
    EXPECT_TRUE(candidate_closure.Implies(fd)) << fd.ToString();
  }

  // The literal relaxation output is always a subset of the approximate
  // frontier.
  FdSet exact = DiscoverFds(dirty).ValueOrDie();
  RelaxationOptions opts;
  opts.max_error = 0.10;
  FdSet relaxed = RelaxFds(dirty, exact, opts).ValueOrDie();
  for (const Fd& fd : relaxed) {
    EXPECT_TRUE(candidates.Contains(fd)) << fd.ToString();
  }
}

// --- Memory-capped discovery (DESIGN.md §8) ---------------------------------

Relation BudgetRelation() {
  // Wide enough that the lattice materializes many partition products.
  Rng rng(7);
  Relation rel(
      Schema::Make({"a", "b", "c", "d", "e", "f", "g"}).ValueOrDie());
  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < 7; ++c) {
      row.push_back(std::to_string(rng.NextBounded(4)));
    }
    rel.AddRow(row);
  }
  return rel;
}

// The bytes of the partitions every walk keeps: the empty set's and the
// columns'.
size_t BaseBytes(const Relation& rel) {
  size_t bytes = Partition::ForEmptySet(rel.NumRows()).ApproxBytes();
  for (int c = 0; c < rel.NumAttributes(); ++c) {
    bytes += Partition::ForColumn(rel, c).ApproxBytes();
  }
  return bytes;
}

TEST(TaneBudgetTest, CapAtThePeakMatchesUncappedExactly) {
  const Relation rel = BudgetRelation();
  TaneOptions plain;
  plain.max_lhs_size = 4;
  DiscoveryOutcome uncapped = DiscoverFdsDetailed(rel, plain).ValueOrDie();
  EXPECT_GT(uncapped.peak_memory_bytes, BaseBytes(rel));

  TaneOptions capped = plain;
  capped.memory_limit_bytes = uncapped.peak_memory_bytes;
  DiscoveryOutcome outcome = DiscoverFdsDetailed(rel, capped).ValueOrDie();
  EXPECT_EQ(outcome.fds.fds(), uncapped.fds.fds());
  EXPECT_FALSE(outcome.memory_truncated);
  EXPECT_EQ(outcome.peak_memory_bytes, uncapped.peak_memory_bytes);

  // One byte less binds.
  capped.memory_limit_bytes = uncapped.peak_memory_bytes - 1;
  EXPECT_TRUE(DiscoverFdsDetailed(rel, capped).ValueOrDie().memory_truncated);
}

TEST(TaneBudgetTest, HardLimitTruncatesGracefully) {
  const Relation rel = BudgetRelation();
  TaneOptions plain;
  plain.max_lhs_size = 4;
  DiscoveryOutcome full = DiscoverFdsDetailed(rel, plain).ValueOrDie();

  // A cap that admits the empty-set and column partitions with a slack
  // smaller than any level-2 product: discovery must stop at the level
  // boundary, not crash.
  TaneOptions capped = plain;
  capped.memory_limit_bytes = BaseBytes(rel) + 256;
  DiscoveryOutcome outcome = DiscoverFdsDetailed(rel, capped).ValueOrDie();

  EXPECT_TRUE(outcome.memory_truncated);
  EXPECT_TRUE(outcome.Truncated());
  EXPECT_LT(outcome.levels_completed, 4);
  EXPECT_LE(outcome.peak_memory_bytes, capped.memory_limit_bytes);
  // Sound: every reported FD is one the full run found.
  for (const Fd& fd : outcome.fds) {
    EXPECT_TRUE(full.fds.Contains(fd)) << fd.ToString();
  }
  EXPECT_LE(outcome.fds.Size(), full.fds.Size());
}

TEST(TaneBudgetTest, TruncationIsDeterministicAcrossThreadCounts) {
  const Relation rel = BudgetRelation();
  // A binding cap (the base + part of one level); products are admitted
  // in the serial admission loop, so where discovery stops must not
  // depend on the worker count.
  auto run = [&rel](int threads) {
    TaneOptions options;
    options.max_lhs_size = 4;
    options.num_threads = threads;
    options.memory_limit_bytes = BaseBytes(rel) + 256;
    return DiscoverFdsDetailed(rel, options).ValueOrDie();
  };
  const DiscoveryOutcome serial = run(1);
  const DiscoveryOutcome parallel = run(4);
  EXPECT_TRUE(serial.memory_truncated);
  EXPECT_EQ(serial.memory_truncated, parallel.memory_truncated);
  EXPECT_EQ(serial.levels_completed, parallel.levels_completed);
  EXPECT_EQ(serial.fds.fds(), parallel.fds.fds());
  EXPECT_EQ(serial.peak_memory_bytes, parallel.peak_memory_bytes);
}

TEST(TaneBudgetTest, TinyHardLimitStillReturnsCleanly) {
  // Even the singleton column partitions exceed this cap: the graceful
  // floor is an empty, memory-truncated outcome — never a crash.
  const Relation rel = BudgetRelation();
  TaneOptions options;
  options.memory_limit_bytes = 64;
  DiscoveryOutcome outcome = DiscoverFdsDetailed(rel, options).ValueOrDie();
  EXPECT_TRUE(outcome.memory_truncated);
  EXPECT_EQ(outcome.levels_completed, 0);
}

TEST(TaneBudgetTest, StreamedLastLevelMaterializesNothing) {
  // With max_lhs_size = 1 the only product level (LHS size 1, lattice
  // level 2) is the streamed last level: its checks only count each node's
  // excess, building no partition. A cap of exactly the base therefore
  // neither truncates nor is ever exceeded, at every thread count.
  const Relation rel = BudgetRelation();
  const size_t base_bytes = BaseBytes(rel);
  TaneOptions plain;
  plain.max_lhs_size = 1;
  const DiscoveryOutcome uncapped =
      DiscoverFdsDetailed(rel, plain).ValueOrDie();
  for (int threads : {1, 4}) {
    TaneOptions capped = plain;
    capped.num_threads = threads;
    capped.memory_limit_bytes = base_bytes;
    const DiscoveryOutcome outcome =
        DiscoverFdsDetailed(rel, capped).ValueOrDie();
    EXPECT_FALSE(outcome.Truncated()) << threads;
    EXPECT_EQ(outcome.levels_completed, 2) << threads;
    EXPECT_EQ(outcome.fds.fds(), uncapped.fds.fds()) << threads;
    EXPECT_EQ(outcome.peak_memory_bytes, base_bytes) << threads;
  }
}

// --- Key-error bounds --------------------------------------------------------

// Wide domains: no column is anywhere near constant, so at LHS size <= 1 a
// walk with a threshold below every {} -> a error checks all m * m pairs.
Relation WideRelation(uint64_t seed) {
  Rng rng(seed);
  Relation rel(Schema::Make({"a", "b", "c", "d", "e"}).ValueOrDie());
  for (int i = 0; i < 80; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < 5; ++c) {
      row.push_back(std::to_string(rng.NextBounded(20 + 15 * c)));
    }
    rel.AddRow(row);
  }
  return rel;
}

TEST(TaneScanTest, ScansExactlyTheChecksBetweenTheBounds) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Relation rel = WideRelation(seed);
    const int m = rel.NumAttributes();
    const double n = static_cast<double>(rel.NumRows());
    // Every check of the walk: {} -> a at level 1, b -> a at level 2.
    std::vector<std::pair<size_t, size_t>> bounds;  // (lower, upper)
    size_t min_constant_removals = static_cast<size_t>(rel.NumRows());
    CountScratch scratch;
    for (int a = 0; a < m; ++a) {
      for (int b = -1; b < m; ++b) {
        if (b == a) continue;
        const AttributeSet x = b < 0 ? AttributeSet() : AttributeSet::Single(b);
        const Partition px = Partition::ForAttributes(rel, x);
        const size_t upper = px.Excess();
        bounds.emplace_back(
            upper - Partition::ForAttributes(rel, x.With(a)).Excess(), upper);
        if (b < 0) {
          min_constant_removals =
              std::min(min_constant_removals, px.Removals(rel, a, scratch));
        }
      }
    }
    std::set<size_t> ks;
    for (const auto& [lower, upper] : bounds) ks.insert({lower, upper});
    size_t swept = 0;
    for (size_t k : ks) {
      // At or above this no {} -> a fails, and the walk checks less.
      if (k >= min_constant_removals) continue;
      const double threshold = static_cast<double>(k) / n;
      size_t between = 0;
      for (const auto& [lower, upper] : bounds) {
        between += lower > 0 && static_cast<double>(lower) / n <= threshold &&
                   static_cast<double>(upper) / n > threshold;
      }
      TaneOptions options;
      options.max_lhs_size = 1;
      options.max_error = threshold;
      const DiscoveryOutcome outcome =
          DiscoverFdsDetailed(rel, options).ValueOrDie();
      ASSERT_EQ(outcome.checks, bounds.size()) << seed << " " << threshold;
      EXPECT_EQ(outcome.g3_scans, between) << seed << " " << threshold;
      ++swept;
    }
    EXPECT_GT(swept, 10u) << seed;
  }
}

TEST(TaneScanTest, ExactWalkNeverScansAndFrontierScansLess) {
  DataGenOptions gen;
  gen.rows = 2000;
  const Relation rel = GenerateTax(gen);
  TaneOptions options;
  options.max_lhs_size = 2;
  const DiscoveryOutcome exact = DiscoverFdsDetailed(rel, options).ValueOrDie();
  EXPECT_GT(exact.checks, 0u);
  EXPECT_EQ(exact.g3_scans, 0u);
  const std::vector<DiscoveryOutcome> frontiers =
      DiscoverFdFrontiers(rel, options, {0.0, 0.1}).ValueOrDie();
  for (const DiscoveryOutcome& outcome : frontiers) {
    EXPECT_GT(outcome.g3_scans, 0u);
    EXPECT_LT(outcome.g3_scans, outcome.checks);
  }
}

// --- One walk, several frontiers --------------------------------------------

// Every outcome of the shared walk must be its threshold's solo walk: the
// same FDs in the same fds() order, and the same progress flags.
void ExpectSameOutcome(const DiscoveryOutcome& got,
                       const DiscoveryOutcome& solo, const std::string& what) {
  EXPECT_EQ(got.fds.fds(), solo.fds.fds()) << what;
  EXPECT_EQ(got.levels_completed, solo.levels_completed) << what;
  EXPECT_EQ(got.truncated, solo.truncated) << what;
  EXPECT_EQ(got.memory_truncated, solo.memory_truncated) << what;
}

// Runs every threshold list at 1, 2, 4 and 8 threads, and at 4 threads
// under a cap at the walk's own peak, against uncapped serial solo walks.
// Returns the number of FDs the solo walks found, so callers can check the
// comparison was not vacuous.
size_t ExpectFrontiersMatchSolo(const Relation& rel,
                                const TaneOptions& options,
                                const std::string& name) {
  std::map<double, DiscoveryOutcome> solo;
  for (double max_error : {0.0, 0.1}) {
    TaneOptions one = options;
    one.max_error = max_error;
    one.num_threads = 1;
    solo[max_error] = DiscoverFdsDetailed(rel, one).ValueOrDie();
  }
  const auto check = [&](const std::vector<double>& thresholds,
                         const TaneOptions& shared, const std::string& how) {
    const std::vector<DiscoveryOutcome> got =
        DiscoverFdFrontiers(rel, shared, thresholds).ValueOrDie();
    EXPECT_EQ(got.size(), thresholds.size()) << name;
    for (size_t i = 0; i < std::min(got.size(), thresholds.size()); ++i) {
      const std::string what = name + ": threshold " +
                               std::to_string(thresholds[i]) + " of " +
                               std::to_string(thresholds.size()) + ", " + how;
      ExpectSameOutcome(got[i], solo[thresholds[i]], what);
      EXPECT_EQ(got[i].peak_memory_bytes, got.front().peak_memory_bytes)
          << what;
    }
    return got.empty() ? size_t{0} : got.front().peak_memory_bytes;
  };
  for (const std::vector<double>& thresholds :
       std::vector<std::vector<double>>{{0.0, 0.1}, {0.1}, {0.0, 0.0}}) {
    TaneOptions shared = options;
    size_t peak = 0;
    for (int threads : {1, 2, 4, 8}) {
      shared.num_threads = threads;
      const size_t got = check(thresholds, shared,
                               "threads=" + std::to_string(threads));
      if (threads > 1) {
        EXPECT_EQ(got, peak) << name << " threads=" << threads;
      }
      peak = got;
    }
    // A cap at the shared walk's own peak binds nothing.
    shared.num_threads = 4;
    shared.memory_limit_bytes = peak;
    EXPECT_EQ(check(thresholds, shared, "threads=4, capped at the peak"),
              peak)
        << name;
  }
  return solo[0.0].fds.Size() + solo[0.1].fds.Size();
}

Relation RandomRelation(uint64_t seed, int rows, int m) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < m; ++c) names.push_back(std::string(1, 'a' + c));
  Relation rel(Schema::Make(names).ValueOrDie());
  for (int i = 0; i < rows; ++i) {
    std::vector<std::string> row;
    for (int c = 0; c < m; ++c) {
      row.push_back(std::to_string(rng.NextBounded(2 + c)));
    }
    rel.AddRow(row);
  }
  return rel;
}

TEST(TaneFrontiersTest, MatchSoloWalksOnTax) {
  // LHS <= 2 keeps the sweep affordable under TSan; candidate_gen_test
  // runs the same table at LHS <= 3.
  DataGenOptions gen;
  gen.rows = 2000;
  const Relation rel = GenerateTax(gen);
  TaneOptions options;
  options.max_lhs_size = 2;
  EXPECT_GT(ExpectFrontiersMatchSolo(rel, options, "tax"), 0u);
}

TEST(TaneFrontiersTest, MatchSoloWalksOnHospital) {
  DataGenOptions gen;
  gen.rows = 800;
  gen.seed = 31;
  const Relation rel = GenerateHospital(gen);
  TaneOptions options;
  options.max_lhs_size = 3;
  EXPECT_GT(ExpectFrontiersMatchSolo(rel, options, "hospital"), 0u);
}

TEST(TaneFrontiersTest, MatchSoloWalksOnBudgetRelation) {
  TaneOptions options;
  options.max_lhs_size = 4;
  ExpectFrontiersMatchSolo(BudgetRelation(), options, "budget");
}

TEST(TaneFrontiersTest, MatchSoloWalksOnRandomRelations) {
  // Unbounded LHS: the walks end at different levels, and no level is
  // streamed.
  for (uint64_t seed : {1234u, 77u, 5u}) {
    TaneOptions options;
    EXPECT_GT(ExpectFrontiersMatchSolo(RandomRelation(seed, 300, 6), options,
                                       "random " + std::to_string(seed)),
              0u);
  }
}

TEST(TaneFrontiersTest, MatchSoloWalksWithoutApproximatePruning) {
  TaneOptions options;
  options.prune_on_approximate = false;
  EXPECT_GT(ExpectFrontiersMatchSolo(RandomRelation(1234, 300, 6), options,
                                     "random, no approximate pruning"),
            0u);
  DataGenOptions gen;
  gen.rows = 800;
  gen.seed = 31;
  options.max_lhs_size = 3;
  EXPECT_GT(ExpectFrontiersMatchSolo(GenerateHospital(gen), options,
                                     "hospital, no approximate pruning"),
            0u);
}

TEST(TaneFrontiersTest, HardLimitTruncationIsDeterministicAcrossThreadCounts) {
  const Relation rel = BudgetRelation();
  auto run = [&rel](int threads) {
    TaneOptions options;
    options.max_lhs_size = 4;
    options.num_threads = threads;
    options.memory_limit_bytes = BaseBytes(rel) + 256;
    return DiscoverFdFrontiers(rel, options, {0.0, 0.1}).ValueOrDie();
  };
  const std::vector<DiscoveryOutcome> serial = run(1);
  const std::vector<DiscoveryOutcome> parallel = run(4);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_TRUE(serial[0].memory_truncated);
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectSameOutcome(parallel[i], serial[i],
                      "threshold " + std::to_string(i));
    EXPECT_EQ(parallel[i].peak_memory_bytes, serial[i].peak_memory_bytes);
  }
}

TEST(TaneFrontiersTest, EmptyThresholdListAndBadThresholds) {
  const Relation rel = BudgetRelation();
  EXPECT_TRUE(DiscoverFdFrontiers(rel, {}, {}).ValueOrDie().empty());
  EXPECT_FALSE(DiscoverFdFrontiers(rel, {}, {0.0, 1.0}).ok());
  EXPECT_FALSE(DiscoverFdFrontiers(rel, {}, {-0.1}).ok());
  EXPECT_FALSE(DiscoverFdFrontiers(rel, {}, {0.0, std::nan("")}).ok());
}

}  // namespace
}  // namespace uguide
