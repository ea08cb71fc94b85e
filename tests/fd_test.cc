#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "fd/closure.h"
#include "fd/fd.h"
#include "reference/fd_theory.h"

namespace uguide {
namespace {

Schema AbcSchema() { return Schema::Make({"A", "B", "C"}).ValueOrDie(); }

// --- Fd / FdSet -------------------------------------------------------------

TEST(FdTest, ShapeValidity) {
  EXPECT_TRUE(Fd({0, 1}, 2).IsValidShape());
  EXPECT_FALSE(Fd({0, 2}, 2).IsValidShape());
  EXPECT_TRUE(Fd(AttributeSet(), 0).IsValidShape());  // constant column
}

TEST(FdTest, ToStringForms) {
  Fd fd({0, 1}, 2);
  EXPECT_EQ(fd.ToString(), "{0,1}->2");
  EXPECT_EQ(fd.ToString(AbcSchema()), "A,B->C");
}

TEST(FdTest, Ordering) {
  EXPECT_LT(Fd({0}, 1), Fd({0}, 2));
  EXPECT_LT(Fd({0}, 2), Fd({1}, 2));
}

TEST(FdSetTest, AddDeduplicates) {
  FdSet set;
  EXPECT_TRUE(set.Add(Fd({0}, 1)));
  EXPECT_FALSE(set.Add(Fd({0}, 1)));
  EXPECT_EQ(set.Size(), 1u);
  EXPECT_TRUE(set.Contains(Fd({0}, 1)));
}

TEST(FdSetTest, RemoveKeepsIndexConsistent) {
  FdSet set({Fd({0}, 1), Fd({1}, 2), Fd({0}, 2)});
  EXPECT_TRUE(set.Remove(Fd({1}, 2)));
  EXPECT_FALSE(set.Remove(Fd({1}, 2)));
  EXPECT_EQ(set.Size(), 2u);
  EXPECT_TRUE(set.Contains(Fd({0}, 2)));
  EXPECT_FALSE(set.Contains(Fd({1}, 2)));
}

TEST(FdSetTest, PreservesInsertionOrder) {
  FdSet set({Fd({2}, 0), Fd({0}, 1)});
  EXPECT_EQ(set[0], Fd({2}, 0));
  EXPECT_EQ(set[1], Fd({0}, 1));
}

TEST(FdSetTest, IsMinimalIn) {
  FdSet set({Fd({0}, 2), Fd({0, 1}, 2)});
  EXPECT_TRUE(set.IsMinimalIn(Fd({0}, 2)));
  EXPECT_FALSE(set.IsMinimalIn(Fd({0, 1}, 2)));
}

// --- Parsing ----------------------------------------------------------------

TEST(FdParseTest, RoundTripsToString) {
  Schema schema = AbcSchema();
  for (const Fd& fd : {Fd({0, 1}, 2), Fd({2}, 0), Fd(AttributeSet(), 1)}) {
    auto parsed = Fd::Parse(fd.ToString(schema), schema);
    ASSERT_TRUE(parsed.ok()) << fd.ToString(schema);
    EXPECT_EQ(*parsed, fd);
  }
}

TEST(FdParseTest, ToleratesWhitespace) {
  auto fd = Fd::Parse("  A , B ->  C ", AbcSchema());
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fd, Fd({0, 1}, 2));
}

TEST(FdParseTest, EmptyLhsIsConstantColumn) {
  auto fd = Fd::Parse("->B", AbcSchema());
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fd, Fd(AttributeSet(), 1));
}

TEST(FdParseTest, RejectsMalformedInput) {
  Schema schema = AbcSchema();
  EXPECT_FALSE(Fd::Parse("A,B", schema).ok());        // no arrow
  EXPECT_FALSE(Fd::Parse("A->Z", schema).ok());       // unknown attribute
  EXPECT_FALSE(Fd::Parse("A,,B->C", schema).ok());    // empty LHS token
  EXPECT_FALSE(Fd::Parse("A,C->C", schema).ok());     // trivial
}

TEST(FdParseTest, SetRoundTrip) {
  Schema schema = AbcSchema();
  FdSet fds({Fd({0}, 1), Fd({1, 2}, 0)});
  auto parsed = FdSet::Parse(fds.ToString(schema), schema);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Size(), 2u);
  EXPECT_TRUE(parsed->Contains(Fd({0}, 1)));
  EXPECT_TRUE(parsed->Contains(Fd({1, 2}, 0)));
}

TEST(FdParseTest, SetSkipsCommentsAndBlanks) {
  auto parsed = FdSet::Parse("# header\n\nA->B\n  # trailing\nB->C\n",
                             AbcSchema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Size(), 2u);
}

TEST(FdParseTest, SetPropagatesErrors) {
  EXPECT_FALSE(FdSet::Parse("A->B\nbroken\n", AbcSchema()).ok());
}

// --- ClosureEngine ----------------------------------------------------------

TEST(ClosureTest, TransitiveClosure) {
  // A -> B, B -> C: closure(A) = ABC.
  ClosureEngine engine(FdSet({Fd({0}, 1), Fd({1}, 2)}));
  EXPECT_EQ(engine.Closure(AttributeSet({0})), AttributeSet({0, 1, 2}));
  EXPECT_EQ(engine.Closure(AttributeSet({2})), AttributeSet({2}));
}

TEST(ClosureTest, ImpliesCoversArmstrongAxioms) {
  ClosureEngine engine(FdSet({Fd({0}, 1), Fd({1}, 2)}));
  EXPECT_TRUE(engine.Implies(Fd({0}, 2)));        // transitivity
  EXPECT_TRUE(engine.Implies(Fd({0, 2}, 1)));     // augmentation
  EXPECT_FALSE(engine.Implies(Fd({2}, 0)));
  EXPECT_FALSE(engine.Implies(Fd({1}, 0)));
}

TEST(ClosureTest, MinimizeStripsExtraneousAttributes) {
  ClosureEngine engine(FdSet({Fd({0}, 2), Fd({0, 1}, 2)}));
  EXPECT_EQ(Minimize(engine, Fd({0, 1}, 2)), Fd({0}, 2));
  EXPECT_TRUE(IsMinimal(engine, Fd({0}, 2)));
  EXPECT_FALSE(IsMinimal(engine, Fd({0, 1}, 2)));
}

TEST(ClosureTest, MinimalCoverDropsRedundant) {
  // A -> B, B -> C, A -> C: the last is redundant.
  ClosureEngine engine(FdSet({Fd({0}, 1), Fd({1}, 2), Fd({0}, 2)}));
  FdSet cover = MinimalCover(engine);
  EXPECT_EQ(cover.Size(), 2u);
  EXPECT_TRUE(EquivalentTo(ClosureEngine(cover), engine));
}

TEST(ClosureTest, MinimalCoverLeftReduces) {
  // AB -> C where A -> C already holds.
  ClosureEngine engine(FdSet({Fd({0}, 2), Fd({0, 1}, 2)}));
  FdSet cover = MinimalCover(engine);
  EXPECT_TRUE(cover.Contains(Fd({0}, 2)));
  EXPECT_FALSE(cover.Contains(Fd({0, 1}, 2)));
}

TEST(ClosureTest, EquivalentToIsSymmetricAndDetectsDifference) {
  ClosureEngine a(FdSet({Fd({0}, 1), Fd({1}, 2)}));
  ClosureEngine b(FdSet({Fd({0}, 1), Fd({1}, 2), Fd({0}, 2)}));
  ClosureEngine c(FdSet({Fd({0}, 1)}));
  EXPECT_TRUE(EquivalentTo(a, b));
  EXPECT_TRUE(EquivalentTo(b, a));
  EXPECT_FALSE(EquivalentTo(a, c));
}

// --- SaturatedSets ----------------------------------------------------------

TEST(SaturationTest, PaperExampleTwo) {
  // Example 2 (§6): Sigma = {B -> C, AC -> B} over {A, B, C}; the saturated
  // sets are {A}, {C}, {B,C}, and {} (plus the full set, which is always
  // closed).
  FdSet fds({Fd({1}, 2), Fd({0, 2}, 1)});
  std::vector<AttributeSet> closed = SaturatedSets(fds, 3);
  auto has = [&](AttributeSet s) {
    return std::find(closed.begin(), closed.end(), s) != closed.end();
  };
  EXPECT_TRUE(has(AttributeSet()));
  EXPECT_TRUE(has(AttributeSet({0})));
  EXPECT_TRUE(has(AttributeSet({2})));
  EXPECT_TRUE(has(AttributeSet({1, 2})));
  EXPECT_TRUE(has(AttributeSet({0, 1, 2})));
  EXPECT_EQ(closed.size(), 5u);
}

TEST(SaturationTest, NoFdsMeansEverySetIsClosed) {
  std::vector<AttributeSet> closed = SaturatedSets(FdSet(), 4);
  EXPECT_EQ(closed.size(), 16u);
}

TEST(SaturationTest, EverySetIsActuallyClosed) {
  FdSet fds({Fd({0}, 1), Fd({2}, 3), Fd({1, 3}, 0)});
  ClosureEngine engine(fds);
  for (const AttributeSet& s : SaturatedSets(fds, 4)) {
    EXPECT_EQ(engine.Closure(s), s) << s.ToString();
  }
}

TEST(SaturationTest, FindsAllClosedSetsByBruteForce) {
  FdSet fds({Fd({0}, 1), Fd({2}, 3), Fd({1, 3}, 0)});
  ClosureEngine engine(fds);
  size_t brute = 0;
  for (uint64_t mask = 0; mask < 32; ++mask) {
    AttributeSet s(mask);
    if (engine.Closure(s) == s) ++brute;
  }
  EXPECT_EQ(SaturatedSets(fds, 5).size(), brute);
}

TEST(SaturationTest, HonorsCap) {
  EXPECT_EQ(SaturatedSets(FdSet(), 10, 7).size(), 7u);
}

TEST(SaturationTest, ZeroAttributes) {
  std::vector<AttributeSet> closed = SaturatedSets(FdSet(), 0);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_TRUE(closed[0].Empty());
}

// --- Armstrong relations ----------------------------------------------------

TEST(ArmstrongTest, FdHoldsOnDetectsViolation) {
  Relation rel(AbcSchema());
  rel.AddRow({"1", "x", "p"});
  rel.AddRow({"1", "x", "q"});
  EXPECT_FALSE(FdHoldsOn(rel, Fd({0}, 2)));
  EXPECT_TRUE(FdHoldsOn(rel, Fd({0}, 1)));
  EXPECT_TRUE(FdHoldsOn(rel, Fd({2}, 1)));  // C unique => C -> B
}

TEST(ArmstrongTest, FdHoldsOnEmptyLhs) {
  Relation rel(AbcSchema());
  rel.AddRow({"1", "x", "p"});
  rel.AddRow({"2", "x", "q"});
  EXPECT_TRUE(FdHoldsOn(rel, Fd(AttributeSet(), 1)));   // B constant
  EXPECT_FALSE(FdHoldsOn(rel, Fd(AttributeSet(), 0)));  // A not constant
}

TEST(ArmstrongTest, BuildsExactArmstrongRelation) {
  FdSet fds({Fd({0}, 1)});
  Relation rel = BuildArmstrongRelation(AbcSchema(), fds);
  EXPECT_TRUE(IsArmstrongRelation(rel, fds));
}

TEST(ArmstrongTest, TransitiveSet) {
  FdSet fds({Fd({0}, 1), Fd({1}, 2)});
  Relation rel = BuildArmstrongRelation(AbcSchema(), fds);
  EXPECT_TRUE(IsArmstrongRelation(rel, fds));
  EXPECT_TRUE(FdHoldsOn(rel, Fd({0}, 2)));   // implied
  EXPECT_FALSE(FdHoldsOn(rel, Fd({2}, 0)));  // not implied
}

TEST(ArmstrongTest, EmptyFdSet) {
  FdSet fds;
  Relation rel = BuildArmstrongRelation(AbcSchema(), fds);
  EXPECT_TRUE(IsArmstrongRelation(rel, fds));
  // With no FDs, nothing non-trivial may hold.
  EXPECT_FALSE(FdHoldsOn(rel, Fd({0}, 1)));
  EXPECT_FALSE(FdHoldsOn(rel, Fd({0, 1}, 2)));
}

// Property sweep: random FD sets over 4 attributes always yield exact
// Armstrong relations.
class ArmstrongPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArmstrongPropertyTest, RandomFdSetsProduceArmstrongRelations) {
  Rng rng(GetParam());
  Schema schema = Schema::Make({"A", "B", "C", "D"}).ValueOrDie();
  FdSet fds;
  const int num_fds = 1 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < num_fds; ++i) {
    AttributeSet lhs(rng.NextBounded(16));
    int rhs = static_cast<int>(rng.NextBounded(4));
    lhs.Remove(rhs);
    fds.Add(Fd(lhs, rhs));
  }
  Relation rel = BuildArmstrongRelation(schema, fds);
  EXPECT_TRUE(IsArmstrongRelation(rel, fds))
      << "FD set:\n" << fds.ToString(schema);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArmstrongPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace uguide
