// Equivalence suite for the partition-backed violation engine (DESIGN.md
// §9): every query must be byte-identical to the hash-grouping reference
// detector, the parallel graph build must be bit-identical to the serial
// one at any thread count, and the cell strategies' heap and class-indexed
// selection must ask the same questions as the full-rescan reference
// (tests/reference/cell_rescan).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/candidate_gen.h"
#include "core/cell_strategies.h"
#include "core/fd_strategies.h"
#include "core/metrics.h"
#include "core/session.h"
#include "core/tuple_strategies.h"
#include "datagen/generators.h"
#include "discovery/tane.h"
#include "errorgen/error_generator.h"
#include "oracle/simulated_expert.h"
#include "reference/cell_rescan.h"
#include "relation/cell_bitmap.h"
#include "test_util.h"
#include "violations/bipartite_graph.h"
#include "violations/cell_classes.h"
#include "reference/hash_detector.h"
#include "violations/violation_artifact.h"
#include "violations/violation_engine.h"

namespace uguide {
namespace {

// A relation mixing the detector's corner cases: a constant column (one
// all-rows class), an all-distinct column (every class a singleton), and
// low-cardinality columns that produce majority-code ties.
Relation MakeRandomRelation(uint64_t seed, int rows) {
  Rng rng(seed);
  Relation rel(
      Schema::Make({"const", "two", "six", "key", "three"}).ValueOrDie());
  for (int i = 0; i < rows; ++i) {
    rel.AddRow({"c", std::to_string(rng.NextBounded(2)),
                std::to_string(rng.NextBounded(6)), std::to_string(i),
                std::to_string(rng.NextBounded(3))});
  }
  return rel;
}

// All valid-shape FDs with |LHS| <= 2, including the empty LHS.
std::vector<Fd> EnumerateFds(int num_attributes) {
  std::vector<Fd> fds;
  for (int rhs = 0; rhs < num_attributes; ++rhs) {
    fds.push_back(Fd(AttributeSet(), rhs));
    for (int a = 0; a < num_attributes; ++a) {
      if (a == rhs) continue;
      fds.push_back(Fd(AttributeSet::Single(a), rhs));
      for (int b = a + 1; b < num_attributes; ++b) {
        if (b == rhs) continue;
        fds.push_back(Fd(AttributeSet::Single(a).With(b), rhs));
      }
    }
  }
  return fds;
}

void ExpectEngineMatchesReference(ViolationEngine& engine,
                                  const Relation& rel, const Fd& fd) {
  EXPECT_EQ(engine.ViolatingTuples(fd), ViolatingTuples(rel, fd));
  EXPECT_EQ(engine.ViolatingCells(fd), ViolatingCells(rel, fd));
  EXPECT_EQ(engine.G3RemovalTuples(fd), G3RemovalTuples(rel, fd));
  EXPECT_EQ(engine.G3RemovalCells(fd), G3RemovalCells(rel, fd));
  EXPECT_EQ(engine.G3RemovalCount(fd), G3RemovalTuples(rel, fd).size());
  EXPECT_EQ(engine.HasViolations(fd), HasViolations(rel, fd));
}

void ExpectGraphsEqual(const ViolationGraph& a, const ViolationGraph& b) {
  ASSERT_EQ(a.NumFds(), b.NumFds());
  ASSERT_EQ(a.NumCells(), b.NumCells());
  for (FdId f = 0; f < a.NumFds(); ++f) {
    EXPECT_EQ(a.fd(f), b.fd(f));
    EXPECT_EQ(a.CellsOfFd(f), b.CellsOfFd(f));
  }
  for (CellId c = 0; c < a.NumCells(); ++c) {
    EXPECT_EQ(a.cell(c), b.cell(c));
    EXPECT_EQ(a.FdsOfCell(c), b.FdsOfCell(c));
  }
}

TEST(ViolationEngineTest, MatchesReferenceOnRandomRelations) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Relation rel = MakeRandomRelation(seed, 120);
    ViolationEngine engine(&rel);
    for (const Fd& fd : EnumerateFds(rel.NumAttributes())) {
      ExpectEngineMatchesReference(engine, rel, fd);
    }
    // The 65 enumerated FDs share 11 distinct non-trivial LHS sets (plus
    // the empty set and 5 columns); the cache must have been doing its job.
    EXPECT_GT(engine.partition_hits(), engine.partition_misses());
  }
}

TEST(ViolationEngineTest, MatchesReferenceOnHandcraftedTies) {
  // zip=1 splits 2-2 between ny and boston: majority is the first-seen
  // code; both detectors must break the tie the same way.
  Relation rel(Schema::Make({"zip", "city"}).ValueOrDie());
  for (const auto& row :
       std::vector<std::vector<std::string>>{{"1", "ny"},
                                             {"1", "boston"},
                                             {"1", "boston"},
                                             {"1", "ny"},
                                             {"2", "la"}}) {
    rel.AddRow(row);
  }
  ViolationEngine engine(&rel);
  const Fd fd({0}, 1);
  ExpectEngineMatchesReference(engine, rel, fd);
  EXPECT_EQ(engine.G3RemovalTuples(fd), (std::vector<TupleId>{1, 2}));
}

// The artifact's per-tuple counts over `fds`, its g3 scans sharded over a
// pool of `threads`.
std::vector<int> ArtifactTupleCounts(const Relation& rel, const FdSet& fds,
                                     int threads) {
  ThreadPool pool(threads);
  const ViolationArtifact artifact(std::make_shared<ViolationEngine>(&rel),
                                   fds, &pool);
  return artifact.TupleViolationCounts();
}

TEST(ViolationEngineTest, ViolationCountPerTupleMatches) {
  Relation rel = MakeRandomRelation(7, 150);
  FdSet fds;
  for (const Fd& fd : EnumerateFds(rel.NumAttributes())) fds.Add(fd);
  const std::vector<int> want = ViolationCountPerTuple(rel, fds);
  for (int threads : {1, 4}) {
    EXPECT_EQ(ArtifactTupleCounts(rel, fds, threads), want)
        << threads << " thread(s)";
  }
  // The live-epoch constructor, over a graph built elsewhere, fills the
  // same counts.
  auto engine = std::make_shared<ViolationEngine>(&rel);
  auto graph = std::make_shared<const ViolationGraph>(
      ViolationGraph::Build(*engine, fds));
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(ViolationArtifact(engine, graph, &pool).TupleViolationCounts(),
              want)
        << threads << " thread(s)";
  }
}

TEST(ViolationEngineTest, MatchesReferenceOnTaxCandidates) {
  DataGenOptions data;
  data.rows = 400;
  data.seed = 9;
  Relation clean = GenerateTax(data);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = 0.1;
  errors.seed = 10;
  DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();
  CandidateGenOptions cand;
  cand.max_lhs_size = 3;
  CandidateSet candidates =
      GenerateCandidates(dataset.dirty, cand).ValueOrDie();
  ASSERT_GT(candidates.candidates.Size(), 0u);

  ViolationEngine engine(&dataset.dirty);
  for (const Fd& fd : candidates.candidates) {
    ExpectEngineMatchesReference(engine, dataset.dirty, fd);
  }
  EXPECT_GT(engine.partition_hits(), 0u);
}

TEST(ViolationEngineTest, TrueViolationSetBitmapMatchesCellProbe) {
  Relation rel = MakeRandomRelation(13, 150);
  const int m = rel.NumAttributes();
  FdSet fds;
  for (const Fd& fd : EnumerateFds(m)) fds.Add(fd);
  TrueViolationSet set = TrueViolationSet::Compute(rel, fds);
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    bool expected = false;
    for (int a = 0; a < m; ++a) {
      expected = expected || set.Contains(Cell{r, a});
    }
    EXPECT_EQ(set.TupleViolates(r), expected);
    // Out-of-range columns never alias onto a neighbouring row's cells.
    EXPECT_FALSE(set.Contains(Cell{r, m}));
    EXPECT_FALSE(set.Contains(Cell{r, -1}));
  }
  EXPECT_FALSE(set.TupleViolates(-1));
  EXPECT_FALSE(set.TupleViolates(rel.NumRows()));
  EXPECT_FALSE(set.Contains(Cell{-1, 1}));
  EXPECT_FALSE(set.Contains(Cell{rel.NumRows(), 1}));

  // The naive index (r, m) -> (r + 1, 0) would hit the set bit here.
  CellBitmap bitmap(3, 5);
  bitmap.Set(Cell{1, 0});
  bitmap.Set(Cell{0, 4});
  EXPECT_TRUE(bitmap.Test(Cell{1, 0}));
  EXPECT_FALSE(bitmap.Test(Cell{0, 5}));
  EXPECT_FALSE(bitmap.Test(Cell{1, -1}));
  EXPECT_FALSE(bitmap.Test(Cell{3, 0}));
  EXPECT_FALSE(bitmap.Test(Cell{-1, 4}));
  EXPECT_TRUE(bitmap.AnyInRow(0));
  EXPECT_TRUE(bitmap.AnyInRow(1));
  EXPECT_FALSE(bitmap.AnyInRow(2));
  EXPECT_EQ(bitmap.ToVector(), (std::vector<Cell>{{0, 4}, {1, 0}}));

  // Row-count mismatch is tolerated (a live epoch appends rows): only the
  // common rows intersect. A column-count mismatch is a shape bug.
  CellBitmap taller(7, 5);
  taller.Set(Cell{0, 4});
  taller.Set(Cell{6, 2});
  EXPECT_EQ(bitmap.AndCount(taller), 1u);
  EXPECT_EQ(taller.AndCount(bitmap), 1u);
  CellBitmap wider(3, 6);
  EXPECT_DEATH(bitmap.AndCount(wider), "Check failed");

  // A default-constructed set contains nothing.
  TrueViolationSet empty;
  EXPECT_EQ(empty.Size(), 0u);
  EXPECT_TRUE(empty.ToVector().empty());
  EXPECT_FALSE(empty.Contains(Cell{0, 0}));
  EXPECT_FALSE(empty.TupleViolates(0));
}

// --- dense detection sets vs a hash-set reference -------------------------

// The pre-bitmap evaluation, kept here as the behavioural reference: the
// union of every FD's violating cells (from the hash-grouping detector) in
// an unordered_set, sorted for AllDetections, probed cell by cell for the
// metrics.
std::unordered_set<Cell, CellHash> ReferenceCellUnion(const Relation& rel,
                                                      const FdSet& fds) {
  std::unordered_set<Cell, CellHash> cells;
  for (const Fd& fd : fds) {
    for (const Cell& cell : ViolatingCells(rel, fd)) cells.insert(cell);
  }
  return cells;
}

std::vector<Cell> SortedCells(const std::unordered_set<Cell, CellHash>& set) {
  std::vector<Cell> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

DetectionMetrics ReferenceEvaluate(
    const Relation& rel, const FdSet& accepted,
    const std::unordered_set<Cell, CellHash>& true_violations,
    const GroundTruth* injected) {
  DetectionMetrics metrics;
  metrics.total_true_errors = true_violations.size();
  if (injected != nullptr) metrics.total_injected = injected->NumChanged();
  const std::vector<Cell> detections =
      SortedCells(ReferenceCellUnion(rel, accepted));
  metrics.detections = detections.size();
  for (const Cell& cell : detections) {
    if (true_violations.contains(cell)) {
      ++metrics.true_positives;
    } else {
      ++metrics.false_positives;
    }
    if (injected != nullptr && injected->IsChanged(cell)) {
      ++metrics.injected_detected;
    }
  }
  metrics.false_negatives = metrics.total_true_errors - metrics.true_positives;
  return metrics;
}

void ExpectMetricsEqual(const DetectionMetrics& a, const DetectionMetrics& b) {
  EXPECT_EQ(a.detections, b.detections);
  EXPECT_EQ(a.true_positives, b.true_positives);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.false_negatives, b.false_negatives);
  EXPECT_EQ(a.total_true_errors, b.total_true_errors);
  EXPECT_EQ(a.injected_detected, b.injected_detected);
  EXPECT_EQ(a.total_injected, b.total_injected);
}

// Random FD subset of `pool` (each FD kept with probability 1/3), with a
// few members added twice.
FdSet RandomFdSubset(Rng& rng, const std::vector<Fd>& pool) {
  FdSet out;
  for (const Fd& fd : pool) {
    if (rng.NextBounded(3) != 0) continue;
    out.Add(fd);
    if (rng.NextBounded(4) == 0) out.Add(fd);
  }
  return out;
}

TEST(DenseDetectionSetTest, MatchesHashSetReference) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    Relation rel = MakeRandomRelation(seed, 120);
    const int m = rel.NumAttributes();
    const std::vector<Fd> pool = EnumerateFds(m);
    Rng rng(seed * 7 + 1);

    const FdSet true_fds = RandomFdSubset(rng, pool);
    const TrueViolationSet truth = TrueViolationSet::Compute(rel, true_fds);
    const std::unordered_set<Cell, CellHash> reference_truth =
        ReferenceCellUnion(rel, true_fds);
    EXPECT_EQ(truth.Size(), reference_truth.size());
    EXPECT_EQ(truth.ToVector(), SortedCells(reference_truth));
    for (TupleId r = 0; r < rel.NumRows(); ++r) {
      for (int a = 0; a < m; ++a) {
        EXPECT_EQ(truth.Contains(Cell{r, a}),
                  reference_truth.contains(Cell{r, a}));
      }
    }

    GroundTruth ledger;
    for (int i = 0; i < 40; ++i) {
      ledger.MarkChanged(
          Cell{static_cast<TupleId>(rng.NextBounded(rel.NumRows())),
               static_cast<int>(rng.NextBounded(m))});
    }
    // Ledger cells outside the grid can never be detected.
    ledger.MarkChanged(Cell{rel.NumRows(), 0});
    ledger.MarkChanged(Cell{0, m});

    std::vector<FdSet> accepted_sets = {FdSet(), true_fds};
    for (int i = 0; i < 6; ++i) {
      accepted_sets.push_back(RandomFdSubset(rng, pool));
    }
    ViolationEngine engine(&rel);
    for (const FdSet& accepted : accepted_sets) {
      EXPECT_EQ(AllDetections(engine, accepted),
                SortedCells(ReferenceCellUnion(rel, accepted)));
      ExpectMetricsEqual(
          EvaluateDetections(engine, accepted, truth),
          ReferenceEvaluate(rel, accepted, reference_truth, nullptr));
      ExpectMetricsEqual(
          EvaluateDetections(engine, accepted, truth, &ledger),
          ReferenceEvaluate(rel, accepted, reference_truth, &ledger));
    }
  }
}

TEST(DenseDetectionSetTest, SaturatingUnionMatchesHashSetReference) {
  // The grouped, saturating union on the FD shapes it special-cases: the
  // empty LHS (one class of every row, so {} -> two flags all of "two"
  // and {} -> const flags nothing), many FDs sharing one LHS, a column
  // flagged in full before later FDs with that RHS (which must then be
  // skipped without changing the set), and X -> A next to XY -> A.
  // Columns: const, two, six, key (all distinct), three.
  const Fd empty_two(AttributeSet(), 1);
  const Fd empty_key(AttributeSet(), 3);
  const Fd empty_const(AttributeSet(), 0);
  std::vector<Fd> shared_lhs;
  for (int rhs : {0, 2, 3, 4}) shared_lhs.push_back(Fd({1}, rhs));
  const std::vector<Fd> saturate_then_refine = {
      Fd({0}, 1), Fd({2}, 1), Fd({2, 4}, 1), Fd({3}, 1), empty_key,
      Fd({1}, 3), Fd({1, 2}, 3), Fd({4}, 3)};
  const std::vector<Fd> nested = {Fd({2}, 4), Fd({1, 2}, 4), Fd({1}, 4),
                                  Fd({2}, 1), Fd({2, 4}, 1)};
  std::vector<std::vector<Fd>> fd_lists = {
      {empty_two}, {empty_const}, {empty_key, empty_two, empty_const},
      shared_lhs, saturate_then_refine, nested};
  std::vector<Fd> all;
  for (const auto& list : fd_lists) {
    all.insert(all.end(), list.begin(), list.end());
  }
  fd_lists.push_back(all);
  fd_lists.push_back(EnumerateFds(5));

  for (uint64_t seed : {31u, 32u}) {
    Relation rel = MakeRandomRelation(seed, 90);
    ViolationEngine engine(&rel);
    for (const std::vector<Fd>& list : fd_lists) {
      const FdSet fds(list);
      const std::vector<Cell> want = SortedCells(ReferenceCellUnion(rel, fds));
      EXPECT_EQ(AllDetections(engine, fds), want);
      EXPECT_EQ(TrueViolationSet::Compute(engine, fds).ToVector(), want);
      EXPECT_EQ(TrueViolationSet::Compute(rel, fds).ToVector(), want);
    }
  }

  // One cell short of full: x -> a flags rows 0-3, leaving a's column one
  // row short, and only the later group y -> a flags row 4. Treating a
  // nearly full column as full would drop that cell.
  Relation short_of_full(Schema::Make({"x", "y", "a"}).ValueOrDie());
  for (const auto& row : std::vector<std::vector<std::string>>{
           {"1", "1", "p"},
           {"1", "2", "q"},
           {"1", "2", "p"},
           {"1", "3", "q"},
           {"2", "3", "r"}}) {
    short_of_full.AddRow(row);
  }
  {
    ViolationEngine engine(&short_of_full);
    const FdSet fds({Fd({0}, 2), Fd({1}, 2), Fd({0, 1}, 2)});
    EXPECT_EQ(AllDetections(engine, fds),
              SortedCells(ReferenceCellUnion(short_of_full, fds)));
    EXPECT_TRUE(engine.ViolatingCellUnion(fds).Test(Cell{4, 2}));
  }

  // A column flagged in full really is: every row of "two" and "key".
  Relation rel = MakeRandomRelation(33, 40);
  ViolationEngine engine(&rel);
  const CellBitmap cells =
      engine.ViolatingCellUnion(FdSet({empty_two, empty_key, empty_const}));
  EXPECT_EQ(cells.Count(), 2u * static_cast<size_t>(rel.NumRows()));
  EXPECT_TRUE(cells.Test(Cell{0, 1}));
  EXPECT_FALSE(cells.Test(Cell{0, 0}));
}

// --- CSR layout equivalence (DESIGN.md §14) -------------------------------

// FindCell (open-addressed probe) must agree with membership in the
// interned cell list for every cell of the relation's grid, and every
// interned cell must resolve to its own id.
void ExpectFindCellMatches(const ViolationGraph& g, const Relation& rel) {
  std::vector<Cell> interned;
  interned.reserve(static_cast<size_t>(g.NumCells()));
  for (CellId c = 0; c < g.NumCells(); ++c) {
    EXPECT_EQ(g.FindCell(g.cell(c)), c);
    interned.push_back(g.cell(c));
  }
  std::sort(interned.begin(), interned.end());
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    for (int a = 0; a < rel.NumAttributes(); ++a) {
      const Cell cell{r, a};
      const bool present =
          std::binary_search(interned.begin(), interned.end(), cell);
      const CellId found = g.FindCell(cell);
      ASSERT_EQ(found >= 0, present);
      if (found >= 0) {
        ASSERT_EQ(g.cell(found), cell);
      }
    }
  }
}

TEST(ViolationGraphTest, CsrAdjacencyMatchesReferenceOnRandomRelations) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    Relation rel = MakeRandomRelation(seed, 100);
    FdSet fds;
    for (const Fd& fd : EnumerateFds(rel.NumAttributes())) fds.Add(fd);
    const ViolationGraph reference = BuildReferenceGraph(rel, fds);
    const ViolationGraph csr = ViolationGraph::Build(rel, fds);
    ExpectGraphsEqual(reference, csr);
    ExpectFindCellMatches(csr, rel);
    ExpectFindCellMatches(reference, rel);
    // The footprint is a pure function of the merged content, so both
    // build paths must report the same figure.
    EXPECT_EQ(reference.ApproxMemoryBytes(), csr.ApproxMemoryBytes());
  }
}

TEST(ViolationGraphTest, ApproxMemoryBytesDeterministicAcrossThreadCounts) {
  Session session = testing::MakeHospitalSession(500);
  const size_t expected =
      BuildReferenceGraph(session.dirty(), session.candidates())
          .ApproxMemoryBytes();
  EXPECT_GT(expected, 0u);
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ViolationEngine engine(&session.dirty());
    ViolationGraph parallel =
        ViolationGraph::Build(engine, session.candidates(), &pool);
    EXPECT_EQ(parallel.ApproxMemoryBytes(), expected) << threads;
  }
}

TEST(ViolationGraphTest, ActiveDegreesMatchRescanUnderRandomDeactivation) {
  // The incremental per-FD and per-cell active-degree counters must agree
  // with a full adjacency rescan after every step of a randomized
  // deactivation sequence (with repeats, so idempotence is exercised too).
  Relation rel = MakeRandomRelation(31, 140);
  FdSet fds;
  for (const Fd& fd : EnumerateFds(rel.NumAttributes())) fds.Add(fd);
  const ViolationGraph graph = ViolationGraph::Build(rel, fds);
  GraphView g(graph);
  ASSERT_GT(g.NumFds(), 0);
  ASSERT_GT(g.NumCells(), 0);
  const auto check = [&g] {
    for (FdId f = 0; f < g.NumFds(); ++f) {
      int rescan = 0;
      if (g.FdActive(f)) {
        for (CellId c : g.CellsOfFd(f)) {
          if (g.CellActive(c)) ++rescan;
        }
      }
      ASSERT_EQ(g.ActiveDegreeOfFd(f), rescan) << "fd " << f;
    }
    for (CellId c = 0; c < g.NumCells(); ++c) {
      int rescan = 0;
      if (g.CellActive(c)) {
        for (FdId f : g.FdsOfCell(c)) {
          if (g.FdActive(f)) ++rescan;
        }
      }
      ASSERT_EQ(g.ActiveDegreeOfCell(c), rescan) << "cell " << c;
    }
  };
  check();
  Rng rng(77);
  for (int step = 0; step < 200; ++step) {
    if (rng.NextBounded(2) == 0) {
      g.DeactivateFd(
          static_cast<FdId>(rng.NextBounded(static_cast<uint64_t>(g.NumFds()))));
    } else {
      g.DeactivateCell(static_cast<CellId>(
          rng.NextBounded(static_cast<uint64_t>(g.NumCells()))));
    }
    check();
  }
  // Active id enumeration must agree with the flags (word-scan check).
  std::vector<FdId> expected_fds;
  for (FdId f = 0; f < g.NumFds(); ++f) {
    if (g.FdActive(f)) expected_fds.push_back(f);
  }
  EXPECT_EQ(g.ActiveFds(), expected_fds);
  std::vector<CellId> expected_cells;
  for (CellId c = 0; c < g.NumCells(); ++c) {
    if (g.CellActive(c)) expected_cells.push_back(c);
  }
  EXPECT_EQ(g.ActiveCells(), expected_cells);
}

TEST(ViolationGraphTest, ParallelBuildBitIdenticalAcrossThreadCounts) {
  Session session = testing::MakeHospitalSession(500);
  const ViolationGraph reference =
      BuildReferenceGraph(session.dirty(), session.candidates());
  // The relation-only overload routes through a private engine.
  ExpectGraphsEqual(reference,
                    ViolationGraph::Build(session.dirty(),
                                          session.candidates()));
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ViolationEngine engine(&session.dirty());
    ViolationGraph parallel =
        ViolationGraph::Build(engine, session.candidates(), &pool);
    ExpectGraphsEqual(reference, parallel);
  }
}

// --- cell classes -----------------------------------------------------------

// The CellClasses contract against the graph it indexes: each class's FD
// list is every member's FdsOfCell, members are ascending and partition
// the cells, classes are numbered by their lowest member, equal lists share
// a class, ClassesOfFd is the exact inverse of Fds with ascending lists,
// ApproxMemoryBytes counts every array, and a second build is identical.
void ExpectClassesIndexGraph(const ViolationGraph& g) {
  const CellClasses classes(g);
  std::vector<int> seen(static_cast<size_t>(g.NumCells()), 0);
  CellId previous_lowest = -1;
  for (int k = 0; k < classes.NumClasses(); ++k) {
    const ConstSpan<CellId> members = classes.Members(k);
    ASSERT_FALSE(members.empty()) << "class " << k;
    EXPECT_GT(members.front(), previous_lowest) << "class " << k;
    previous_lowest = members.front();
    for (size_t i = 0; i < members.size(); ++i) {
      const CellId c = members[i];
      if (i > 0) {
        EXPECT_LT(members[i - 1], c) << "class " << k;
      }
      EXPECT_EQ(classes.ClassOf(c), k);
      EXPECT_EQ(classes.Fds(k), g.FdsOfCell(c)) << "cell " << c;
      ++seen[static_cast<size_t>(c)];
    }
  }
  for (CellId c = 0; c < g.NumCells(); ++c) {
    EXPECT_EQ(seen[static_cast<size_t>(c)], 1) << "cell " << c;
  }
  std::map<std::vector<FdId>, int> class_of_list;
  for (CellId c = 0; c < g.NumCells(); ++c) {
    const auto [it, inserted] =
        class_of_list.emplace(g.FdsOfCell(c).ToVector(), classes.ClassOf(c));
    EXPECT_EQ(it->second, classes.ClassOf(c)) << "cell " << c;
  }
  EXPECT_EQ(class_of_list.size(), static_cast<size_t>(classes.NumClasses()));

  // ClassesOfFd: every (class, FD) pair of Fds appears exactly once, in
  // ascending class order per FD, and nothing else does.
  std::set<std::pair<int, FdId>> pairs;
  size_t listed_fds = 0;
  for (int k = 0; k < classes.NumClasses(); ++k) {
    for (FdId f : classes.Fds(k)) pairs.emplace(k, f);
    listed_fds += classes.Fds(k).size();
  }
  EXPECT_EQ(pairs.size(), listed_fds);
  size_t inverse_pairs = 0;
  for (FdId f = 0; f < g.NumFds(); ++f) {
    const ConstSpan<int> of_fd = classes.ClassesOfFd(f);
    for (size_t i = 0; i < of_fd.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(of_fd[i - 1], of_fd[i]) << "fd " << f;
      }
      EXPECT_EQ(pairs.count({of_fd[i], f}), 1u)
          << "fd " << f << " class " << of_fd[i];
    }
    inverse_pairs += of_fd.size();
  }
  EXPECT_EQ(inverse_pairs, pairs.size());

  // Payload bytes: class_of and members (one int per cell), the FD lists
  // and their inverse (one int per pair each), and three offset arrays.
  const size_t classes_n = static_cast<size_t>(classes.NumClasses());
  const size_t cells_n = static_cast<size_t>(g.NumCells());
  const size_t fds_n = static_cast<size_t>(g.NumFds());
  EXPECT_EQ(classes.ApproxMemoryBytes(),
            (2 * cells_n + 2 * listed_fds) * sizeof(int) +
                (2 * (classes_n + 1) + fds_n + 1) * sizeof(uint32_t));

  const CellClasses again(g);
  ASSERT_EQ(again.NumClasses(), classes.NumClasses());
  for (int k = 0; k < classes.NumClasses(); ++k) {
    EXPECT_EQ(again.Fds(k), classes.Fds(k));
    EXPECT_EQ(again.Members(k), classes.Members(k));
  }
  for (FdId f = 0; f < g.NumFds(); ++f) {
    EXPECT_EQ(again.ClassesOfFd(f), classes.ClassesOfFd(f));
  }
}

TEST(CellClassesTest, HandBuiltGraph) {
  // Cells a and e are flagged by FD 0 alone, b by {0, 1}, c by {0, 1, 2}
  // and d by {1, 2}: four classes, one of them with two members.
  const Cell a{0, 1}, b{1, 1}, c{2, 1}, d{3, 2}, e{4, 1};
  const ViolationGraph g = ViolationGraph::FromPerFdCells(
      {Fd(AttributeSet::Single(0), 1), Fd(AttributeSet::Single(3), 1),
       Fd(AttributeSet::Single(0), 2)},
      std::vector<std::vector<Cell>>{{a, b, c, e}, {b, c, d}, {c, d}});
  ASSERT_EQ(g.NumCells(), 5);
  ExpectClassesIndexGraph(g);
  const CellClasses classes(g);
  EXPECT_EQ(classes.NumClasses(), 4);
  EXPECT_EQ(classes.Members(classes.ClassOf(g.FindCell(a))),
            (std::vector<CellId>{g.FindCell(a), g.FindCell(e)}));
  EXPECT_EQ(classes.Fds(classes.ClassOf(g.FindCell(c))),
            (std::vector<FdId>{0, 1, 2}));
  // FD 0 flags a/e, b and c; FD 1 flags b, c and d; FD 2 flags c and d.
  EXPECT_EQ(classes.ClassesOfFd(0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(classes.ClassesOfFd(1), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(classes.ClassesOfFd(2), (std::vector<int>{2, 3}));
}

TEST(CellClassesTest, TaxGraph) {
  Session session = testing::MakeTaxSession(400);
  const ViolationGraph g =
      ViolationGraph::Build(session.dirty(), session.candidates());
  ASSERT_GT(g.NumCells(), 0);
  ExpectClassesIndexGraph(g);
  // Many cells share a flagging-FD list on Tax; the index must compress.
  EXPECT_LT(CellClasses(g).NumClasses(), g.NumCells());
}

// --- strategy-level equivalence -------------------------------------------

void ExpectReportsEqual(const SessionReport& a, const SessionReport& b) {
  EXPECT_EQ(a.strategy_name, b.strategy_name);
  EXPECT_EQ(a.result.accepted_fds.fds(), b.result.accepted_fds.fds());
  EXPECT_EQ(a.result.cost_spent, b.result.cost_spent);
  EXPECT_EQ(a.result.questions_asked, b.result.questions_asked);
  EXPECT_EQ(a.metrics.detections, b.metrics.detections);
  EXPECT_EQ(a.metrics.true_positives, b.metrics.true_positives);
  EXPECT_EQ(a.metrics.false_positives, b.metrics.false_positives);
  EXPECT_EQ(a.metrics.false_negatives, b.metrics.false_negatives);
  EXPECT_EQ(a.metrics.injected_detected, b.metrics.injected_detected);
}

TEST(IncrementalSelectionTest, CellStrategiesMatchRescanReference) {
  // The class selector (all four strategies) and the class-indexed SUMS
  // fixpoint must ask the same questions — hence produce byte-identical
  // reports — as the O(NumCells)-rescan reference, including under IDK
  // answers (which change no state and re-select) and wrong answers (a
  // "no" on a true violation deactivates FDs and can orphan cells; a
  // "yes" on a clean cell pins it in SUMS). Hospital has few cells per
  // flagging-FD list; Tax shares lists widely.
  std::vector<std::pair<std::string, Session>> sessions;
  for (double idk : {0.0, 0.25}) {
    Session hospital = testing::MakeHospitalSession(
        600, ErrorModel::kSystematic, 0.15, 5, idk);
    sessions.emplace_back("hospital idk=" + std::to_string(idk),
                          std::move(hospital));
  }
  sessions.emplace_back("hospital wrong=0.1",
                        testing::MakeHospitalSession(
                            600, ErrorModel::kSystematic, 0.15, 5, 0.0, 0.1));
  sessions.emplace_back("tax", testing::MakeTaxSession(300));
  for (const auto& [label, session] : sessions) {
    for (double budget : {30.0, 120.0}) {
      SCOPED_TRACE(::testing::Message() << label << " budget=" << budget);
      {
        auto a = MakeCellQHittingSet();
        auto b = MakeRescanCellQHittingSet();
        ExpectReportsEqual(session.Run(*a, budget), session.Run(*b, budget));
      }
      {
        auto a = MakeCellQGreedy();
        auto b = MakeRescanCellQGreedy();
        ExpectReportsEqual(session.Run(*a, budget), session.Run(*b, budget));
      }
      {
        auto a = MakeCellQSums();
        auto b = MakeRescanCellQSums();
        ExpectReportsEqual(session.Run(*a, budget), session.Run(*b, budget));
      }
      {
        auto a = MakeCellQOracle();
        auto b = MakeRescanCellQOracle();
        ExpectReportsEqual(session.Run(*a, budget), session.Run(*b, budget));
      }
    }
  }
}

TEST(IncrementalSelectionTest, SumsMatchesReferenceAtTightRecompute) {
  // Recomputing the fixpoint after every answer maximizes the number of
  // Estimate-Confidence invocations (the hardest schedule for the class
  // state carried between calls).
  Session session = testing::MakeHospitalSession(500);
  CellStrategyOptions options;
  options.sums_recompute_interval = 1;
  auto a = MakeCellQSums(options);
  auto b = MakeRescanCellQSums(options);
  ExpectReportsEqual(session.Run(*a, 150.0), session.Run(*b, 150.0));
}

TEST(IncrementalSelectionTest, SumsClassesMatchReferenceOnTax) {
  // Tax cells share flagging-FD lists widely, so the class-indexed fixpoint
  // and selection collapse many cells per class. They must still ask the
  // reference's questions: per-answer and batched recomputation, with and
  // without IDK answers. The large budget outlasts every evidence-adding
  // question, so the least-trusted fallback picks the final questions.
  for (double idk : {0.0, 0.25}) {
    Session session = testing::MakeTaxSession(300, idk);
    for (int interval : {1, CellStrategyOptions{}.sums_recompute_interval}) {
      for (double budget : {40.0, 400.0}) {
        CellStrategyOptions options;
        options.sums_recompute_interval = interval;
        auto a = MakeCellQSums(options);
        auto b = MakeRescanCellQSums(options);
        SCOPED_TRACE(::testing::Message() << "idk=" << idk << " interval="
                                          << interval << " budget=" << budget);
        ExpectReportsEqual(session.Run(*a, budget), session.Run(*b, budget));
      }
    }
  }
}

TEST(SessionDeterminismTest, ThreadCountDoesNotChangeAnyStrategy) {
  auto make_session = [](int threads) {
    DataGenOptions data;
    data.rows = 500;
    data.seed = 5;
    Relation clean = GenerateHospital(data);
    TaneOptions tane;
    tane.max_lhs_size = 3;
    FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
    ErrorGenOptions errors;
    errors.model = ErrorModel::kSystematic;
    errors.error_rate = 0.15;
    errors.seed = 6;
    DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();
    SessionConfig config;
    config.candidate_options.max_lhs_size = 3;
    config.candidate_options.num_threads = threads;
    return Session::Create(clean, std::move(dataset), config).ValueOrDie();
  };
  Session serial = make_session(1);
  Session parallel = make_session(4);
  ASSERT_EQ(serial.candidates().fds(), parallel.candidates().fds());

  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(MakeCellQHittingSet());
  strategies.push_back(MakeCellQGreedy());
  strategies.push_back(MakeCellQSums());
  strategies.push_back(MakeCellQOracle());
  strategies.push_back(MakeFdQBudgetedMaxCoverage());
  strategies.push_back(MakeFdQGreedy());
  strategies.push_back(MakeFdQOracle());
  strategies.push_back(MakeTupleSamplingUniform());
  strategies.push_back(MakeTupleSamplingViolationWeighting());
  strategies.push_back(MakeTupleSamplingSaturationSets());
  strategies.push_back(MakeTupleQOracle());
  for (const auto& strategy : strategies) {
    ExpectReportsEqual(serial.Run(*strategy, 60.0),
                       parallel.Run(*strategy, 60.0));
  }
}

// --- incremental weighted sampling ----------------------------------------

// Records the tuple-question sequence while delegating to a real expert.
class RecordingExpert : public Expert {
 public:
  explicit RecordingExpert(Expert* inner) : inner_(inner) {}
  Answer IsCellErroneous(const Cell& cell) override {
    return inner_->IsCellErroneous(cell);
  }
  Answer IsTupleClean(TupleId row) override {
    rows.push_back(row);
    return inner_->IsTupleClean(row);
  }
  Answer IsFdValid(const Fd& fd) override { return inner_->IsFdValid(fd); }

  std::vector<TupleId> rows;

 private:
  Expert* inner_;
};

// The pre-incremental draw: re-sums the remaining weighted mass over the
// unasked tuples before every draw (the O(n)-per-question reference the
// WeightedDraw sampler replaced).
TupleId ReferenceDrawUnasked(Rng& rng, const std::vector<double>& weights,
                             const std::vector<bool>& asked) {
  double remaining = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!asked[i]) remaining += weights[i];
  }
  if (remaining <= 0.0) {
    for (size_t i = 0; i < weights.size(); ++i) {
      if (!asked[i]) return static_cast<TupleId>(i);
    }
    return -1;
  }
  double r = rng.NextDouble() * remaining;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (asked[i]) continue;
    r -= weights[i];
    if (r < 0.0) return static_cast<TupleId>(i);
  }
  for (size_t i = weights.size(); i-- > 0;) {
    if (!asked[i]) return static_cast<TupleId>(i);
  }
  return -1;
}

TEST(IncrementalSamplingTest, ViolationWeightedDrawSequenceMatchesReference) {
  Session session = testing::MakeHospitalSession(400);
  const Relation& dirty = session.dirty();
  const int m = dirty.NumAttributes();

  // Run the production strategy with a recording expert.
  SimulatedExpert expert(&session.true_violations(), &session.truth(), m,
                         session.true_fds());
  RecordingExpert recorder(&expert);
  QuestionContext ctx;
  ctx.dirty = &dirty;
  ctx.candidates = &session.candidates();
  ctx.expert = &recorder;
  ctx.budget = 60.0;
  ctx.artifact = &session.artifact();
  ctx.exact_fds = &session.exact_fds();
  TupleStrategyOptions options;
  auto strategy = MakeTupleSamplingViolationWeighting(options);
  (void)strategy->Run(ctx);
  ASSERT_FALSE(recorder.rows.empty());

  // Predict the ask sequence with the reference (re-summing) sampler: same
  // weights, same rng seed, same budget loop, same deterministic expert.
  // The weights come from the hash reference's per-tuple counts, which the
  // artifact's must equal at any thread count.
  std::vector<int> counts =
      ViolationCountPerTuple(dirty, session.candidates());
  for (int threads : {1, 4}) {
    EXPECT_EQ(ArtifactTupleCounts(dirty, session.candidates(), threads),
              counts)
        << threads << " thread(s)";
  }
  const double total = static_cast<double>(session.candidates().Size());
  std::vector<double> weights(counts.size());
  bool any_positive = false;
  for (size_t i = 0; i < counts.size(); ++i) {
    weights[i] = std::max(0.0, total - counts[i]);
    any_positive = any_positive || weights[i] > 0.0;
  }
  if (!any_positive) std::fill(weights.begin(), weights.end(), 1.0);

  SimulatedExpert reference_expert(&session.true_violations(),
                                   &session.truth(), m, session.true_fds());
  Rng rng(options.seed);
  const double cost = ctx.cost.TupleCost(m);
  std::vector<bool> asked(static_cast<size_t>(dirty.NumRows()), false);
  std::vector<TupleId> predicted;
  double spent = 0.0;
  while (spent + cost <= ctx.budget) {
    TupleId t = ReferenceDrawUnasked(rng, weights, asked);
    if (t < 0) break;
    asked[static_cast<size_t>(t)] = true;
    (void)reference_expert.IsTupleClean(t);
    predicted.push_back(t);
    spent += cost;
  }
  EXPECT_EQ(recorder.rows, predicted);
}

}  // namespace
}  // namespace uguide
