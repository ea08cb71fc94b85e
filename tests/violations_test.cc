#include <gtest/gtest.h>

#include "common/rng.h"
#include "discovery/partition.h"
#include "violations/bipartite_graph.h"
#include "reference/hash_detector.h"

namespace uguide {
namespace {

Relation MakeRelation(const std::vector<std::string>& attrs,
                      const std::vector<std::vector<std::string>>& rows) {
  Relation rel(Schema::Make(attrs).ValueOrDie());
  for (const auto& row : rows) rel.AddRow(row);
  return rel;
}

TEST(ViolationDetectorTest, ImpureClassCellsAreFlagged) {
  Relation rel = MakeRelation(
      {"zip", "city"},
      {{"1", "ny"}, {"1", "ny"}, {"1", "boston"}, {"2", "la"}});
  // Participation semantics: every cell of the impure zip=1 class.
  std::vector<Cell> cells = ViolatingCells(rel, Fd({0}, 1));
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], (Cell{0, 1}));
  EXPECT_EQ(cells[1], (Cell{1, 1}));
  EXPECT_EQ(cells[2], (Cell{2, 1}));
}

TEST(ViolationDetectorTest, G3RemovalFlagsMinorityOnly) {
  Relation rel = MakeRelation(
      {"zip", "city"},
      {{"1", "ny"}, {"1", "ny"}, {"1", "boston"}, {"2", "la"}});
  std::vector<Cell> cells = G3RemovalCells(rel, Fd({0}, 1));
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], (Cell{2, 1}));
  EXPECT_EQ(G3RemovalTuples(rel, Fd({0}, 1)), (std::vector<TupleId>{2}));
}

TEST(ViolationDetectorTest, NoViolationsWhenFdHolds) {
  Relation rel = MakeRelation({"zip", "city"},
                              {{"1", "ny"}, {"1", "ny"}, {"2", "la"}});
  EXPECT_TRUE(ViolatingCells(rel, Fd({0}, 1)).empty());
  EXPECT_FALSE(HasViolations(rel, Fd({0}, 1)));
}

TEST(ViolationDetectorTest, HasViolationsAgreesWithCells) {
  Rng rng(21);
  Relation rel(Schema::Make({"a", "b", "c"}).ValueOrDie());
  for (int i = 0; i < 100; ++i) {
    rel.AddRow({std::to_string(rng.NextBounded(5)),
                std::to_string(rng.NextBounded(4)),
                std::to_string(rng.NextBounded(3))});
  }
  for (int lhs = 0; lhs < 3; ++lhs) {
    for (int rhs = 0; rhs < 3; ++rhs) {
      if (lhs == rhs) continue;
      Fd fd(AttributeSet::Single(lhs), rhs);
      EXPECT_EQ(HasViolations(rel, fd), !ViolatingCells(rel, fd).empty());
    }
  }
}

TEST(ViolationDetectorTest, ViolationCountMatchesG3) {
  // |removal set| / n must equal the partition-based g3 error.
  Rng rng(22);
  Relation rel(Schema::Make({"a", "b", "c"}).ValueOrDie());
  for (int i = 0; i < 150; ++i) {
    rel.AddRow({std::to_string(rng.NextBounded(6)),
                std::to_string(rng.NextBounded(5)),
                std::to_string(rng.NextBounded(2))});
  }
  PartitionCache cache(&rel);
  for (int lhs = 0; lhs < 3; ++lhs) {
    for (int rhs = 0; rhs < 3; ++rhs) {
      if (lhs == rhs) continue;
      Fd fd(AttributeSet::Single(lhs), rhs);
      const double g3 = cache.FdError(fd);
      const double ratio =
          static_cast<double>(G3RemovalTuples(rel, fd).size()) /
          rel.NumRows();
      EXPECT_NEAR(ratio, g3, 1e-12) << fd.ToString();
    }
  }
}

TEST(ViolationDetectorTest, EmptyLhsSemantics) {
  Relation rel = MakeRelation({"a"}, {{"x"}, {"x"}, {"x"}, {"y"}, {"z"}});
  // Participation: the whole column is one impure class.
  EXPECT_EQ(ViolatingCells(rel, Fd(AttributeSet(), 0)).size(), 5u);
  // g3 removal: only the two non-majority cells.
  std::vector<Cell> removal = G3RemovalCells(rel, Fd(AttributeSet(), 0));
  ASSERT_EQ(removal.size(), 2u);
  EXPECT_EQ(removal[0].row, 3);
  EXPECT_EQ(removal[1].row, 4);
}

TEST(ViolationDetectorTest, PerTupleCounts) {
  Relation rel = MakeRelation(
      {"zip", "city", "state"},
      {{"1", "ny", "NY"}, {"1", "ny", "NY"}, {"1", "boston", "MA"}});
  FdSet fds({Fd({0}, 1), Fd({0}, 2)});
  std::vector<int> counts = ViolationCountPerTuple(rel, fds);
  EXPECT_EQ(counts, (std::vector<int>{0, 0, 2}));
}

// --- ViolationGraph ---------------------------------------------------------

ViolationGraph SmallGraph() {
  // fd0: zip->city flags all three city cells (one impure class); fd1 and
  // fd2 flag nothing (state is constant).
  Relation rel = MakeRelation(
      {"zip", "city", "state"},
      {{"1", "ny", "NY"}, {"1", "ny", "NY"}, {"1", "boston", "NY"}});
  FdSet fds({Fd({0}, 1), Fd({1}, 2), Fd({0}, 2)});
  return ViolationGraph::Build(rel, fds);
}

TEST(ViolationGraphTest, BuildAlignsFdIds) {
  ViolationGraph g = SmallGraph();
  EXPECT_EQ(g.NumFds(), 3);
  EXPECT_EQ(g.fd(0), Fd({0}, 1));
  EXPECT_EQ(g.fd(1), Fd({1}, 2));
  // zip->city flags every city cell of the impure class.
  ASSERT_EQ(g.CellsOfFd(0).size(), 3u);
  EXPECT_EQ(g.cell(g.CellsOfFd(0)[2]), (Cell{2, 1}));
  // city->state and zip->state flag nothing (state is constant).
  EXPECT_TRUE(g.CellsOfFd(1).empty());
  EXPECT_TRUE(g.CellsOfFd(2).empty());
}

TEST(ViolationGraphTest, SharedCellHasTwoFds) {
  Relation rel = MakeRelation(
      {"zip", "area", "city"},
      {{"1", "a", "ny"}, {"1", "a", "ny"}, {"1", "a", "boston"}});
  // Both zip->city and area->city flag the same three cells.
  const ViolationGraph graph =
      ViolationGraph::Build(rel, FdSet({Fd({0}, 2), Fd({1}, 2)}));
  const GraphView g(graph);
  ASSERT_EQ(g.NumCells(), 3);
  for (CellId c = 0; c < g.NumCells(); ++c) {
    EXPECT_EQ(g.FdsOfCell(c).size(), 2u);
    EXPECT_EQ(g.ActiveDegreeOfCell(c), 2);
  }
}

TEST(ViolationGraphTest, DeactivateFdCascadesToOrphanCells) {
  Relation rel = MakeRelation(
      {"zip", "area", "city"},
      {{"1", "a", "ny"}, {"1", "a", "ny"}, {"1", "b", "boston"}});
  // zip->city flags its impure class; area->city flags nothing (area
  // splits the groups into pure classes).
  const ViolationGraph graph =
      ViolationGraph::Build(rel, FdSet({Fd({0}, 2), Fd({1}, 2)}));
  GraphView g(graph);
  ASSERT_EQ(g.NumCells(), 3);
  EXPECT_TRUE(g.CellActive(0));
  g.DeactivateFd(0);
  EXPECT_FALSE(g.FdActive(0));
  for (CellId c = 0; c < g.NumCells(); ++c) {
    EXPECT_FALSE(g.CellActive(c));  // all orphaned
  }
  EXPECT_EQ(g.ActiveFds(), std::vector<FdId>{1});
  EXPECT_TRUE(g.ActiveCells().empty());
}

TEST(ViolationGraphTest, DeactivateFdKeepsSharedCells) {
  Relation rel = MakeRelation(
      {"zip", "area", "city"},
      {{"1", "a", "ny"}, {"1", "a", "ny"}, {"1", "a", "boston"}});
  const ViolationGraph graph =
      ViolationGraph::Build(rel, FdSet({Fd({0}, 2), Fd({1}, 2)}));
  GraphView g(graph);
  g.DeactivateFd(0);
  EXPECT_TRUE(g.CellActive(0));  // still flagged by area->city
  EXPECT_EQ(g.ActiveDegreeOfCell(0), 1);
}

TEST(ViolationGraphTest, FindCell) {
  ViolationGraph g = SmallGraph();
  EXPECT_GE(g.FindCell(Cell{2, 1}), 0);
  EXPECT_EQ(g.FindCell(Cell{0, 0}), -1);
}

TEST(ViolationGraphTest, DeactivateCellIsIdempotent) {
  const ViolationGraph graph = SmallGraph();
  GraphView g(graph);
  g.DeactivateCell(0);
  g.DeactivateCell(0);
  EXPECT_FALSE(g.CellActive(0));
  EXPECT_EQ(g.ActiveDegreeOfCell(0), 0);
}

TEST(ViolationGraphTest, ViewsOverOneGraphAreIndependent) {
  // A run's deactivations live in its view: the frozen graph, and every
  // other view over it, still see all nodes active.
  const ViolationGraph graph = SmallGraph();
  GraphView run(graph);
  for (FdId f = 0; f < graph.NumFds(); ++f) run.DeactivateFd(f);
  EXPECT_TRUE(run.ActiveCells().empty());
  const GraphView fresh(graph);
  EXPECT_EQ(static_cast<int>(fresh.ActiveFds().size()), graph.NumFds());
  EXPECT_EQ(static_cast<int>(fresh.ActiveCells().size()), graph.NumCells());
  for (CellId c = 0; c < graph.NumCells(); ++c) {
    EXPECT_EQ(fresh.ActiveDegreeOfCell(c),
              static_cast<int>(graph.FdsOfCell(c).size()));
  }
}

}  // namespace
}  // namespace uguide
