// Cross-module randomized property suites: algebraic laws that must hold
// for every input, exercised over seeded random instances.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/repair.h"
#include "discovery/partition.h"
#include "discovery/tane.h"
#include "fd/closure.h"
#include "reference/fd_theory.h"
#include "reference/hash_detector.h"
#include "reference/relaxation.h"
#include "violations/bipartite_graph.h"

namespace uguide {
namespace {

Relation RandomRelation(Rng& rng, int attrs, int rows, int max_domain) {
  std::vector<std::string> names;
  for (int c = 0; c < attrs; ++c) names.push_back("a" + std::to_string(c));
  Relation rel(Schema::Make(names).ValueOrDie());
  std::vector<std::string> row(static_cast<size_t>(attrs));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < attrs; ++c) {
      row[static_cast<size_t>(c)] =
          std::to_string(rng.NextBounded(1 + rng.NextBounded(
                                                 static_cast<uint64_t>(
                                                     max_domain))));
    }
    rel.AddRow(row);
  }
  return rel;
}

FdSet RandomFdSet(Rng& rng, int attrs, int count) {
  FdSet fds;
  for (int i = 0; i < count; ++i) {
    AttributeSet lhs(rng.NextBounded(uint64_t{1} << attrs));
    int rhs = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(attrs)));
    lhs.Remove(rhs);
    fds.Add(Fd(lhs, rhs));
  }
  return fds;
}

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// --- Closure operator laws --------------------------------------------------

TEST_P(SeededPropertyTest, ClosureIsExtensiveMonotoneIdempotent) {
  Rng rng(GetParam());
  const int attrs = 6;
  ClosureEngine engine(RandomFdSet(rng, attrs, 5));
  for (int trial = 0; trial < 20; ++trial) {
    AttributeSet x(rng.NextBounded(1 << attrs));
    AttributeSet y = x.Union(AttributeSet(rng.NextBounded(1 << attrs)));
    AttributeSet cx = engine.Closure(x);
    // Extensive: X subset of X+.
    EXPECT_TRUE(x.IsSubsetOf(cx));
    // Idempotent: (X+)+ = X+.
    EXPECT_EQ(engine.Closure(cx), cx);
    // Monotone: X subset of Y implies X+ subset of Y+.
    EXPECT_TRUE(cx.IsSubsetOf(engine.Closure(y)));
  }
}

TEST_P(SeededPropertyTest, MinimalCoverIsEquivalentAndMinimal) {
  Rng rng(GetParam());
  ClosureEngine engine(RandomFdSet(rng, 5, 6));
  FdSet cover = MinimalCover(engine);
  ClosureEngine cover_engine(cover);
  EXPECT_TRUE(EquivalentTo(engine, cover_engine));
  for (const Fd& fd : cover) {
    EXPECT_TRUE(IsMinimal(cover_engine, fd)) << fd.ToString();
  }
}

TEST_P(SeededPropertyTest, SaturatedSetsAreIntersectionClosed) {
  Rng rng(GetParam());
  FdSet fds = RandomFdSet(rng, 5, 4);
  std::vector<AttributeSet> closed = SaturatedSets(fds, 5);
  for (size_t i = 0; i < closed.size(); ++i) {
    for (size_t j = i + 1; j < closed.size(); ++j) {
      AttributeSet meet = closed[i].Intersect(closed[j]);
      EXPECT_TRUE(std::find(closed.begin(), closed.end(), meet) !=
                  closed.end())
          << closed[i].ToString() << " ^ " << closed[j].ToString();
    }
  }
}

// --- Partition laws ----------------------------------------------------------

TEST_P(SeededPropertyTest, PartitionProductLaws) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 4, 120, 6);
  Partition pa = Partition::ForColumn(rel, 0);
  Partition pb = Partition::ForColumn(rel, 1);
  Partition pc = Partition::ForColumn(rel, 2);

  // Commutativity (as partitions, i.e., same class structure).
  Partition ab = pa.Product(pb);
  Partition ba = pb.Product(pa);
  EXPECT_EQ(ab.NumClasses(), ba.NumClasses());
  EXPECT_EQ(ab.StrippedSize(), ba.StrippedSize());

  // Associativity.
  Partition ab_c = ab.Product(pc);
  Partition a_bc = pa.Product(pb.Product(pc));
  EXPECT_EQ(ab_c.NumClasses(), a_bc.NumClasses());
  EXPECT_EQ(ab_c.StrippedSize(), a_bc.StrippedSize());

  // ForAttributes equals iterated products.
  Partition direct = Partition::ForAttributes(rel, AttributeSet({0, 1, 2}));
  EXPECT_EQ(direct.NumClasses(), ab_c.NumClasses());
  EXPECT_EQ(direct.StrippedSize(), ab_c.StrippedSize());

  // Refinement: products never coarsen.
  EXPECT_LE(ab.StrippedSize(), pa.StrippedSize());
  EXPECT_LE(ab_c.StrippedSize(), ab.StrippedSize());
}

TEST_P(SeededPropertyTest, FdErrorBoundsAndMonotonicity) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 4, 100, 5);
  PartitionCache cache(&rel);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      Fd single(AttributeSet::Single(a), b);
      const double e1 = cache.FdError(single);
      EXPECT_GE(e1, 0.0);
      EXPECT_LT(e1, 1.0);
      // Adding LHS attributes never increases the g3 error.
      for (int c = 0; c < 4; ++c) {
        if (c == a || c == b) continue;
        Fd wider(AttributeSet({a, c}), b);
        EXPECT_LE(cache.FdError(wider), e1 + 1e-12)
            << wider.ToString() << " vs " << single.ToString();
      }
    }
  }
}

TEST_P(SeededPropertyTest, G3RemovalMatchesPartitionError) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 4, 80, 4);
  PartitionCache cache(&rel);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) continue;
      Fd fd(AttributeSet::Single(a), b);
      EXPECT_NEAR(static_cast<double>(G3RemovalTuples(rel, fd).size()) /
                      rel.NumRows(),
                  cache.FdError(fd), 1e-12);
    }
  }
}

// --- Discovery laws -----------------------------------------------------------

TEST_P(SeededPropertyTest, DiscoveredFdsHoldAndNonDiscoveredFail) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 5, 60, 4);
  FdSet fds = DiscoverFds(rel).ValueOrDie();
  ClosureEngine engine(fds);
  for (const Fd& fd : fds) {
    EXPECT_TRUE(FdHoldsOn(rel, fd)) << fd.ToString();
  }
  // Spot-check soundness of the complement: a sample of non-implied FDs
  // must be violated.
  for (int trial = 0; trial < 30; ++trial) {
    AttributeSet lhs(rng.NextBounded(1 << 5));
    int rhs = static_cast<int>(rng.NextBounded(5));
    lhs.Remove(rhs);
    Fd fd(lhs, rhs);
    if (!engine.Implies(fd)) {
      EXPECT_FALSE(FdHoldsOn(rel, fd)) << fd.ToString();
    }
  }
}

TEST_P(SeededPropertyTest, ApproximateFrontierContainsRelaxationOutput) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 5, 80, 4);
  FdSet exact = DiscoverFds(rel).ValueOrDie();
  RelaxationOptions relax;
  relax.max_error = 0.15;
  FdSet relaxed = RelaxFds(rel, exact, relax).ValueOrDie();
  TaneOptions approx;
  approx.max_error = 0.15;
  FdSet frontier = DiscoverFds(rel, approx).ValueOrDie();
  for (const Fd& fd : relaxed) {
    EXPECT_TRUE(frontier.Contains(fd)) << fd.ToString();
  }
}

TEST_P(SeededPropertyTest, LargerThresholdGeneralizesFrontier) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 4, 100, 4);
  TaneOptions small, large;
  small.max_error = 0.05;
  large.max_error = 0.25;
  FdSet tight = DiscoverFds(rel, small).ValueOrDie();
  FdSet loose = DiscoverFds(rel, large).ValueOrDie();
  // Every FD passing the tight threshold is implied by (a generalization
  // in) the loose frontier.
  for (const Fd& fd : tight) {
    bool generalized = false;
    for (const Fd& g : loose) {
      if (g.rhs == fd.rhs && g.lhs.IsSubsetOf(fd.lhs)) {
        generalized = true;
        break;
      }
    }
    EXPECT_TRUE(generalized) << fd.ToString();
  }
}

// --- Graph consistency ---------------------------------------------------------

TEST_P(SeededPropertyTest, ViolationGraphEdgeCountsAgree) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 4, 80, 3);
  TaneOptions approx;
  approx.max_error = 0.3;
  FdSet candidates = DiscoverFds(rel, approx).ValueOrDie();
  const ViolationGraph graph = ViolationGraph::Build(rel, candidates);
  GraphView view(graph);
  size_t from_fds = 0, from_cells = 0;
  for (FdId f = 0; f < graph.NumFds(); ++f) {
    from_fds += graph.CellsOfFd(f).size();
  }
  for (CellId c = 0; c < graph.NumCells(); ++c) {
    from_cells += graph.FdsOfCell(c).size();
    EXPECT_EQ(view.ActiveDegreeOfCell(c),
              static_cast<int>(graph.FdsOfCell(c).size()));
  }
  EXPECT_EQ(from_fds, from_cells);

  // Deactivating every FD empties the right side too.
  for (FdId f = 0; f < graph.NumFds(); ++f) view.DeactivateFd(f);
  EXPECT_TRUE(view.ActiveCells().empty());
}

// --- Repair laws ----------------------------------------------------------------

TEST_P(SeededPropertyTest, SingleFdRepairReachesFixpoint) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 3, 60, 3);
  FdSet fd({Fd({0}, 1)});
  RepairOptions opts;
  opts.min_majority_support = 1;
  opts.guard_suspicious_lhs = false;
  RepairResult first = RepairWithFds(rel, fd, opts);
  // A second pass over the repaired table makes no further strict-majority
  // repairs for the same FD.
  RepairResult second = RepairWithFds(first.repaired, fd, opts);
  EXPECT_TRUE(second.repairs.empty());
}

TEST_P(SeededPropertyTest, RepairsOnlyTouchReportedCells) {
  Rng rng(GetParam());
  Relation rel = RandomRelation(rng, 3, 60, 3);
  FdSet fds({Fd({0}, 1), Fd({2}, 0)});
  RepairResult result = RepairWithFds(rel, fds);
  std::unordered_set<Cell, CellHash> touched;
  for (const CellRepair& r : result.repairs) touched.insert(r.cell);
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    for (int c = 0; c < rel.NumAttributes(); ++c) {
      if (!touched.contains(Cell{r, c})) {
        EXPECT_EQ(result.repaired.Value(r, c), rel.Value(r, c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace uguide
