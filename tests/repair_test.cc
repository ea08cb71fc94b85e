#include <gtest/gtest.h>

#include "core/fd_strategies.h"
#include "core/repair.h"
#include "core/session.h"
#include "reference/fd_theory.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

Relation MakeRelation(const std::vector<std::string>& attrs,
                      const std::vector<std::vector<std::string>>& rows) {
  Relation rel(Schema::Make(attrs).ValueOrDie());
  for (const auto& row : rows) rel.AddRow(row);
  return rel;
}

TEST(RepairTest, FixesSimpleMinority) {
  Relation dirty = MakeRelation(
      {"zip", "city"},
      {{"1", "ny"}, {"1", "ny"}, {"1", "boston"}, {"2", "la"}});
  RepairResult result = RepairWithFds(dirty, FdSet({Fd({0}, 1)}));
  ASSERT_EQ(result.repairs.size(), 1u);
  EXPECT_EQ(result.repairs[0].cell, (Cell{2, 1}));
  EXPECT_EQ(result.repairs[0].old_value, "boston");
  EXPECT_EQ(result.repairs[0].new_value, "ny");
  EXPECT_EQ(result.repaired.Value(2, 1), "ny");
  // The untouched rows stay intact.
  EXPECT_EQ(result.repaired.Value(3, 1), "la");
}

TEST(RepairTest, NoViolationsNoRepairs) {
  Relation clean = MakeRelation({"zip", "city"},
                                {{"1", "ny"}, {"1", "ny"}, {"2", "la"}});
  RepairResult result = RepairWithFds(clean, FdSet({Fd({0}, 1)}));
  EXPECT_TRUE(result.repairs.empty());
}

TEST(RepairTest, EmptyFdSetIsIdentity) {
  Relation dirty = MakeRelation({"a"}, {{"x"}, {"y"}});
  RepairResult result = RepairWithFds(dirty, FdSet());
  EXPECT_TRUE(result.repairs.empty());
  EXPECT_EQ(result.repaired.Value(0, 0), "x");
}

TEST(RepairTest, EachCellRepairedOnce) {
  // Two FDs targeting the same RHS column: the first one to touch a cell
  // wins; the second must not rewrite it again.
  Relation dirty = MakeRelation(
      {"zip", "area", "city"},
      {{"1", "a", "ny"}, {"1", "a", "ny"}, {"1", "a", "boston"}});
  RepairResult result =
      RepairWithFds(dirty, FdSet({Fd({0}, 2), Fd({1}, 2)}));
  EXPECT_EQ(result.repairs.size(), 1u);
  EXPECT_EQ(result.repaired.Value(2, 2), "ny");
}

TEST(RepairTest, RepairedTableSatisfiesFd) {
  Relation dirty = MakeRelation(
      {"zip", "city"},
      {{"1", "ny"}, {"1", "ny"}, {"1", "boston"}, {"2", "la"}, {"2", "sf"},
       {"2", "la"}});
  FdSet fds({Fd({0}, 1)});
  RepairResult result = RepairWithFds(dirty, fds);
  // After one pass with a single FD, the FD holds exactly.
  EXPECT_TRUE(FdHoldsOn(result.repaired, Fd({0}, 1)));
  EXPECT_EQ(result.repairs.size(), 2u);
}

TEST(RepairTest, EndToEndRestoresInjectedErrors) {
  Session session = MakeHospitalSession(1200);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionReport report = session.Run(*strategy, 500.0);
  RepairResult repair =
      RepairWithFds(session.dirty(), report.result.accepted_fds);

  // Score against the clean table regenerated from the fixture's recipe.
  DataGenOptions data;
  data.rows = 1200;
  data.seed = 5;
  Relation clean = GenerateHospital(data);
  RepairMetrics metrics = EvaluateRepairs(clean, session.truth(), repair);
  EXPECT_GT(metrics.repairs, 0u);
  // Majority repair over expert-validated FDs should be precise; the
  // LHS-suspicion guard trades some recall for that precision (ambiguous
  // violations are left for a human pass).
  EXPECT_GE(metrics.Precision(), 0.9);
  EXPECT_GE(metrics.Recall(), 0.55);
}

TEST(RepairTest, MetricsBounds) {
  RepairMetrics m;
  EXPECT_EQ(m.Precision(), 1.0);  // vacuous
  EXPECT_EQ(m.Recall(), 1.0);     // vacuous
  m.repairs = 4;
  m.correct_repairs = 3;
  m.total_errors = 10;
  m.errors_fixed = 5;
  EXPECT_DOUBLE_EQ(m.Precision(), 0.75);
  EXPECT_DOUBLE_EQ(m.Recall(), 0.5);
}

}  // namespace
}  // namespace uguide
