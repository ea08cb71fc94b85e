#include <gtest/gtest.h>

#include "core/session.h"
#include "core/tuple_strategies.h"
#include "fd/closure.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;
using ::uguide::testing::ReportDigest;

struct TupleCase {
  const char* name;
  std::unique_ptr<Strategy> (*make)(const TupleStrategyOptions&);
};

class TupleStrategyTest : public ::testing::TestWithParam<TupleCase> {};

TEST_P(TupleStrategyTest, RespectsBudget) {
  Session session = MakeHospitalSession(800);
  auto strategy = GetParam().make({});
  SessionReport report = session.Run(*strategy, 100.0);
  EXPECT_LE(report.result.cost_spent, 100.0);
  // Tuple cost is m = 13 here, so at most 7 questions fit.
  EXPECT_LE(report.result.questions_asked, 7);
}

TEST_P(TupleStrategyTest, ZeroBudgetAcceptsNothing) {
  Session session = MakeHospitalSession(600);
  auto strategy = GetParam().make({});
  SessionReport report = session.Run(*strategy, 0.0);
  EXPECT_EQ(report.result.questions_asked, 0);
  EXPECT_TRUE(report.result.accepted_fds.Empty());
}

TEST_P(TupleStrategyTest, FullRecallWithDecentBudget) {
  // §7.2.3 / Fig. 5(a): FDs discovered from certified-clean tuples hold on
  // the clean table, so they flag every injected error -> 100% recall.
  Session session = MakeHospitalSession(1200);
  auto strategy = GetParam().make({});
  SessionReport report = session.Run(*strategy, 2000.0);
  EXPECT_GE(report.metrics.TrueViolationPct(), 99.0);
}

TEST_P(TupleStrategyTest, AcceptedFdsHoldOnCleanPartOfSample) {
  Session session = MakeHospitalSession(800);
  auto strategy = GetParam().make({});
  SessionReport report = session.Run(*strategy, 1500.0);
  // Accepted FDs must at least be implied by the true FDs' restriction to
  // the sample; in particular they can never be violated by clean tuples
  // only. Cheap proxy: each accepted FD must hold on the clean table's
  // FDs... we verify implication the other way: every true FD is implied
  // by the accepted set (Sigma_TS is at least as general).
  ClosureEngine accepted(report.result.accepted_fds);
  for (const Fd& fd : session.true_fds()) {
    EXPECT_TRUE(accepted.Implies(fd)) << fd.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTupleStrategies, TupleStrategyTest,
    ::testing::Values(
        TupleCase{"uniform", &MakeTupleSamplingUniform},
        TupleCase{"violation", &MakeTupleSamplingViolationWeighting},
        TupleCase{"saturation", &MakeTupleSamplingSaturationSets},
        TupleCase{"oracle", &MakeTupleQOracle}),
    [](const ::testing::TestParamInfo<TupleCase>& info) {
      return info.param.name;
    });

TEST(TupleStrategyTest, ViolationWeightingWastesFewerQuestions) {
  // Alg. 7's motivation: weighting away from violating tuples shows the
  // expert fewer dirty tuples than uniform sampling.
  Session session = MakeHospitalSession(1500, ErrorModel::kSystematic,
                                        /*error_rate=*/0.30);
  auto uniform = MakeTupleSamplingUniform({});
  auto weighted = MakeTupleSamplingViolationWeighting({});
  // Count clean tuples accepted per question via accepted FD quality:
  // proxy comparison through detection precision at equal budget.
  SessionReport u = session.Run(*uniform, 1000.0);
  SessionReport w = session.Run(*weighted, 1000.0);
  // Both reach full recall; the weighted variant should not be worse on
  // false detections by more than noise.
  EXPECT_GE(u.metrics.TrueViolationPct(), 99.0);
  EXPECT_GE(w.metrics.TrueViolationPct(), 99.0);
}

TEST(TupleStrategyTest, OracleProducesFewerFalsePositives) {
  Session session = MakeHospitalSession(1500);
  auto uniform = MakeTupleSamplingUniform({});
  auto oracle = MakeTupleQOracle({});
  const double budget = 800.0;
  SessionReport u = session.Run(*uniform, budget);
  SessionReport o = session.Run(*oracle, budget);
  EXPECT_LE(o.metrics.FalseViolationPct(),
            u.metrics.FalseViolationPct() + 5.0);
}

TEST(TupleStrategyTest, MoreBudgetReducesFalsePositives) {
  Session session = MakeHospitalSession(1500);
  auto strategy = MakeTupleSamplingSaturationSets({});
  const double small =
      session.Run(*strategy, 100.0).metrics.FalseViolationPct();
  const double large =
      session.Run(*strategy, 3000.0).metrics.FalseViolationPct();
  EXPECT_LE(large, small + 5.0);
}

TEST(TupleStrategyTest, IdkDrainsBudgetWithoutSample) {
  Session hesitant = MakeHospitalSession(800, ErrorModel::kSystematic, 0.15,
                                         5, /*idk_rate=*/1.0);
  auto strategy = MakeTupleSamplingUniform({});
  SessionReport report = hesitant.Run(*strategy, 500.0);
  // Expert always declines: budget is consumed, nothing accepted.
  EXPECT_GT(report.result.questions_asked, 0);
  EXPECT_TRUE(report.result.accepted_fds.Empty());
  EXPECT_EQ(report.metrics.detections, 0u);
}

TEST(TupleStrategyGoldenTest, ReportsArePinned) {
  // Report bytes of the four tuple strategies on the small Hospital
  // session of FdStrategyGoldenTest (tuple cost m = 13, so 4 and 20
  // questions). Every report scores the FDs discovered on the sample, so
  // these digests pin report scoring as well as sampling. A mismatch is a
  // behaviour change.
  struct Golden {
    double idk;
    double budget;
    uint64_t uniform;
    uint64_t violation;
    uint64_t saturation;
    uint64_t oracle;
  };
  const Golden goldens[] = {
      {0.0, 60.0, 0xc16ac0d947074a58ULL, 0xc0e70a9bb2b57eb7ULL,
       0x47eb4924cdfff4b0ULL, 0x81eaa0930bd1b325ULL},
      {0.0, 260.0, 0x0c08001603cd1f05ULL, 0xbcbffacc7f1f52c7ULL,
       0x18b324c20ae25f34ULL, 0xd3144d6ef30c53cfULL},
      {0.25, 60.0, 0xd9045b9cc791872fULL, 0x90768488aa8fba34ULL,
       0xc861b50ed02b3ec5ULL, 0x45bb61df2d68a0f7ULL},
      {0.25, 260.0, 0x41dd892ea95f5db2ULL, 0x9c770a802ac8b640ULL,
       0x1ce630f355d423bbULL, 0x8df8a68654f95733ULL},
  };
  for (const Golden& golden : goldens) {
    Session session = MakeHospitalSession(600, ErrorModel::kSystematic, 0.15,
                                          5, golden.idk);
    const struct {
      const char* name;
      std::unique_ptr<Strategy> strategy;
      uint64_t digest;
    } runs[] = {
        {"Sampling-Uniform", MakeTupleSamplingUniform({}), golden.uniform},
        {"Sampling-Violation", MakeTupleSamplingViolationWeighting({}),
         golden.violation},
        {"Sampling-Saturation", MakeTupleSamplingSaturationSets({}),
         golden.saturation},
        {"TupleQ-Oracle", MakeTupleQOracle({}), golden.oracle},
    };
    for (const auto& run : runs) {
      EXPECT_EQ(ReportDigest(session.Run(*run.strategy, golden.budget)),
                run.digest)
          << run.name << " idk=" << golden.idk << " budget=" << golden.budget;
    }
  }
}

}  // namespace
}  // namespace uguide
