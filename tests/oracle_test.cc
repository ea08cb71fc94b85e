#include <gtest/gtest.h>

#include "oracle/cost_model.h"
#include "oracle/simulated_expert.h"
#include "relation/relation.h"

namespace uguide {
namespace {

TEST(CostModelTest, CellAndTupleCosts) {
  CostModel cost;
  EXPECT_EQ(cost.CellCost(), 1.0);
  EXPECT_EQ(cost.TupleCost(13), 13.0);
  CostModel doubled;
  doubled.cell_cost = 2.0;
  EXPECT_EQ(doubled.CellCost(), 2.0);
  EXPECT_EQ(doubled.TupleCost(4), 8.0);
}

TEST(CostModelTest, FdCostMatchesPaperExample) {
  // §7.1: minimal FD A -> D with alpha = 2: asking A -> D costs 1,
  // AB -> D costs 4, ABC -> D costs 12.
  CostModel cost;
  EXPECT_EQ(cost.FdCost(Fd({0}, 3), 0), 1.0);
  EXPECT_EQ(cost.FdCost(Fd({0, 1}, 3), 1), 4.0);
  EXPECT_EQ(cost.FdCost(Fd({0, 1, 2}, 3), 2), 12.0);
}

TEST(CostModelTest, EmptyLhsStaysPositive) {
  CostModel cost;
  EXPECT_GT(cost.FdCost(Fd(AttributeSet(), 0), 0), 0.0);
}

TEST(CostModelTest, ExtraAttributesAgainstReference) {
  FdSet reference({Fd({0}, 3), Fd({1, 2}, 3), Fd({0}, 1)});
  // {0,1} -> 3 specializes {0} -> 3 by one attribute.
  EXPECT_EQ(CostModel::ExtraAttributes(Fd({0, 1}, 3), reference), 1);
  // {0,1,2} -> 3 is one above {1,2} -> 3 (the closest subset).
  EXPECT_EQ(CostModel::ExtraAttributes(Fd({0, 1, 2}, 3), reference), 1);
  // A minimal reference FD itself has k = 0.
  EXPECT_EQ(CostModel::ExtraAttributes(Fd({0}, 3), reference), 0);
  // No subset reference with matching RHS: treated as minimal.
  EXPECT_EQ(CostModel::ExtraAttributes(Fd({2}, 0), reference), 0);
}

// A 4-row relation where zip -> city is violated by row 2: under §7.1
// semantics rows 0..2's city cells all violate the true FD.
struct ExpertFixture {
  ExpertFixture()
      : relation(Schema::Make({"zip", "city", "state"}).ValueOrDie()) {
    relation.AddRow({"1", "ny", "NY"});
    relation.AddRow({"1", "ny", "NY"});
    relation.AddRow({"1", "boston", "NY"});  // row 2's city was corrupted
    relation.AddRow({"2", "la", "CA"});
    true_fds.Add(Fd({0}, 1));  // zip -> city
    violations = TrueViolationSet::Compute(relation, true_fds);
    ledger.MarkChanged(Cell{2, 1});
  }
  Relation relation;
  FdSet true_fds;
  TrueViolationSet violations;
  GroundTruth ledger;
};

TEST(TrueViolationSetTest, ComputesParticipatingCells) {
  ExpertFixture fx;
  EXPECT_EQ(fx.violations.Size(), 3u);
  EXPECT_TRUE(fx.violations.Contains(Cell{0, 1}));
  EXPECT_TRUE(fx.violations.Contains(Cell{2, 1}));
  EXPECT_FALSE(fx.violations.Contains(Cell{3, 1}));
  EXPECT_FALSE(fx.violations.Contains(Cell{0, 0}));
  EXPECT_TRUE(fx.violations.TupleViolates(2));
  EXPECT_FALSE(fx.violations.TupleViolates(3));
  std::vector<Cell> cells = fx.violations.ToVector();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], (Cell{0, 1}));
}

TEST(SimulatedExpertTest, CellAnswersFollowViolations) {
  ExpertFixture fx;
  SimulatedExpert expert(&fx.violations, &fx.ledger, 3, fx.true_fds);
  EXPECT_EQ(expert.IsCellErroneous(Cell{2, 1}), Answer::kYes);
  // The witness cell of the violating pair is also "erroneous" (§7.1).
  EXPECT_EQ(expert.IsCellErroneous(Cell{0, 1}), Answer::kYes);
  EXPECT_EQ(expert.IsCellErroneous(Cell{3, 1}), Answer::kNo);
  EXPECT_EQ(expert.cell_questions(), 3);
}

TEST(SimulatedExpertTest, TupleAnswersFollowLedger) {
  ExpertFixture fx;
  SimulatedExpert expert(&fx.violations, &fx.ledger, 3, fx.true_fds);
  EXPECT_EQ(expert.IsTupleClean(2), Answer::kNo);
  // The clean witness of the violation is still a clean *tuple* (§2.1:
  // "has correct values in every cell").
  EXPECT_EQ(expert.IsTupleClean(0), Answer::kYes);
  EXPECT_EQ(expert.IsTupleClean(3), Answer::kYes);
  EXPECT_EQ(expert.tuple_questions(), 3);
}

TEST(SimulatedExpertTest, FdAnswersUseImplication) {
  TrueViolationSet violations;
  GroundTruth ledger;
  // True FDs: A -> B, B -> C.
  SimulatedExpert expert(&violations, &ledger, 3,
                         FdSet({Fd({0}, 1), Fd({1}, 2)}));
  EXPECT_EQ(expert.IsFdValid(Fd({0}, 1)), Answer::kYes);
  EXPECT_EQ(expert.IsFdValid(Fd({0}, 2)), Answer::kYes);     // transitive
  EXPECT_EQ(expert.IsFdValid(Fd({0, 2}, 1)), Answer::kYes);  // specialization
  EXPECT_EQ(expert.IsFdValid(Fd({2}, 0)), Answer::kNo);
  EXPECT_EQ(expert.fd_questions(), 4);
}

TEST(SimulatedExpertTest, IdkRateZeroNeverDeclines) {
  TrueViolationSet violations;
  GroundTruth ledger;
  SimulatedExpert expert(&violations, &ledger, 3, FdSet(),
                         /*idk_rate=*/0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(expert.IsCellErroneous(Cell{0, 0}), Answer::kIdk);
  }
  EXPECT_EQ(expert.idk_answers(), 0);
}

TEST(SimulatedExpertTest, IdkRateOneAlwaysDeclines) {
  TrueViolationSet violations;
  GroundTruth ledger;
  SimulatedExpert expert(&violations, &ledger, 3, FdSet(),
                         /*idk_rate=*/1.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(expert.IsCellErroneous(Cell{1, 0}), Answer::kIdk);
    EXPECT_EQ(expert.IsTupleClean(0), Answer::kIdk);
    EXPECT_EQ(expert.IsFdValid(Fd({0}, 1)), Answer::kIdk);
  }
  EXPECT_EQ(expert.idk_answers(), 150);
}

TEST(SimulatedExpertTest, IdkRateIsApproximatelyRespected) {
  TrueViolationSet violations;
  GroundTruth ledger;
  SimulatedExpert expert(&violations, &ledger, 3, FdSet(),
                         /*idk_rate=*/0.5, /*seed=*/3);
  int declined = 0;
  for (int i = 0; i < 2000; ++i) {
    if (expert.IsCellErroneous(Cell{0, 0}) == Answer::kIdk) ++declined;
  }
  EXPECT_GT(declined, 850);
  EXPECT_LT(declined, 1150);
}

TEST(SimulatedExpertTest, WrongRateFlipsAnswers) {
  ExpertFixture fx;
  SimulatedExpert expert(&fx.violations, &fx.ledger, 3, fx.true_fds,
                         /*idk_rate=*/0.0, /*seed=*/5, /*wrong_rate=*/1.0);
  // Every answer is inverted.
  EXPECT_EQ(expert.IsCellErroneous(Cell{2, 1}), Answer::kNo);
  EXPECT_EQ(expert.IsCellErroneous(Cell{3, 1}), Answer::kYes);
  EXPECT_EQ(expert.IsTupleClean(3), Answer::kNo);
  EXPECT_EQ(expert.IsFdValid(Fd({0}, 1)), Answer::kNo);
  EXPECT_EQ(expert.wrong_answers(), 4);
}

TEST(SimulatedExpertTest, WrongRateIsApproximatelyRespected) {
  ExpertFixture fx;
  SimulatedExpert expert(&fx.violations, &fx.ledger, 3, fx.true_fds,
                         /*idk_rate=*/0.0, /*seed=*/7, /*wrong_rate=*/0.25);
  int wrong = 0;
  for (int i = 0; i < 2000; ++i) {
    if (expert.IsCellErroneous(Cell{3, 1}) == Answer::kYes) ++wrong;
  }
  EXPECT_GT(wrong, 380);
  EXPECT_LT(wrong, 620);
}

TEST(MajorityVoteExpertTest, OutvotesOccasionalMistakes) {
  ExpertFixture fx;
  SimulatedExpert noisy(&fx.violations, &fx.ledger, 3, fx.true_fds,
                        /*idk_rate=*/0.0, /*seed=*/9, /*wrong_rate=*/0.2);
  MajorityVoteExpert voting(&noisy, 5);
  int wrong = 0;
  for (int i = 0; i < 400; ++i) {
    if (voting.IsCellErroneous(Cell{3, 1}) == Answer::kYes) ++wrong;
  }
  // P(majority of 5 wrong at p=0.2) ~ 5.8%; far below the raw 20%.
  EXPECT_LT(wrong, 40);
}

TEST(SimulatedExpertTest, SameSeedGivesIdenticalAnswerSequence) {
  ExpertFixture fx;
  SimulatedExpert a(&fx.violations, &fx.ledger, 3, fx.true_fds,
                    /*idk_rate=*/0.3, /*seed=*/21, /*wrong_rate=*/0.3);
  SimulatedExpert b(&fx.violations, &fx.ledger, 3, fx.true_fds,
                    /*idk_rate=*/0.3, /*seed=*/21, /*wrong_rate=*/0.3);
  for (int i = 0; i < 500; ++i) {
    const Cell cell{i % 4, 1};
    ASSERT_EQ(a.IsCellErroneous(cell), b.IsCellErroneous(cell)) << i;
    ASSERT_EQ(a.IsTupleClean(i % 4), b.IsTupleClean(i % 4)) << i;
    ASSERT_EQ(a.IsFdValid(Fd({0}, 1)), b.IsFdValid(Fd({0}, 1))) << i;
  }
  EXPECT_EQ(a.wrong_answers(), b.wrong_answers());
  EXPECT_EQ(a.idk_answers(), b.idk_answers());
}

// Deterministic stand-in: answers wrong on every 3rd question. With three
// votes per question, at most one vote is wrong, so majority always wins.
class EveryThirdWrongExpert : public Expert {
 public:
  Answer IsCellErroneous(const Cell&) override { return Next(Answer::kNo); }
  Answer IsTupleClean(TupleId) override { return Next(Answer::kYes); }
  Answer IsFdValid(const Fd&) override { return Next(Answer::kYes); }

 private:
  Answer Next(Answer truth) {
    const bool wrong = (++calls_ % 3) == 0;
    if (!wrong) return truth;
    return truth == Answer::kYes ? Answer::kNo : Answer::kYes;
  }
  int calls_ = 0;
};

TEST(MajorityVoteExpertTest, TwoOfThreeAlwaysBeatsEveryThirdMistake) {
  EveryThirdWrongExpert inner;
  MajorityVoteExpert voting(&inner, 3);
  for (int i = 0; i < 99; ++i) {
    ASSERT_EQ(voting.IsCellErroneous(Cell{0, 0}), Answer::kNo) << i;
  }
  EveryThirdWrongExpert inner2;
  MajorityVoteExpert voting2(&inner2, 3);
  for (int i = 0; i < 99; ++i) {
    ASSERT_EQ(voting2.IsTupleClean(0), Answer::kYes) << i;
    ASSERT_EQ(voting2.IsFdValid(Fd({0}, 1)), Answer::kYes) << i;
  }
}

TEST(MajorityVoteExpertTest, AllIdkYieldsIdk) {
  TrueViolationSet violations;
  GroundTruth ledger;
  SimulatedExpert inner(&violations, &ledger, 3, FdSet(), /*idk_rate=*/1.0);
  MajorityVoteExpert voting(&inner, 3);
  EXPECT_EQ(voting.IsCellErroneous(Cell{0, 0}), Answer::kIdk);
  EXPECT_EQ(voting.IsTupleClean(0), Answer::kIdk);
  EXPECT_EQ(voting.IsFdValid(Fd({0}, 1)), Answer::kIdk);
}

TEST(MajorityVoteExpertTest, SingleVoteIsTransparent) {
  ExpertFixture fx;
  SimulatedExpert inner(&fx.violations, &fx.ledger, 3, fx.true_fds);
  MajorityVoteExpert voting(&inner, 1);
  EXPECT_EQ(voting.IsCellErroneous(Cell{2, 1}), Answer::kYes);
  EXPECT_EQ(voting.IsFdValid(Fd({2}, 0)), Answer::kNo);
}

TEST(SimulatedExpertTest, AnswerNames) {
  EXPECT_STREQ(AnswerName(Answer::kYes), "yes");
  EXPECT_STREQ(AnswerName(Answer::kNo), "no");
  EXPECT_STREQ(AnswerName(Answer::kIdk), "idk");
}

}  // namespace
}  // namespace uguide
