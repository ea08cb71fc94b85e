#include <gtest/gtest.h>

#include "core/fd_strategies.h"
#include "core/session.h"
#include "fd/closure.h"
#include "reference/fd_rescan.h"
#include "server/protocol.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;
using ::uguide::testing::MakeTaxSession;
using ::uguide::testing::ReportDigest;

struct FdCase {
  const char* name;
  std::unique_ptr<Strategy> (*make)(const FdStrategyOptions&);
};

class FdStrategyTest : public ::testing::TestWithParam<FdCase> {};

TEST_P(FdStrategyTest, RespectsBudget) {
  Session session = MakeHospitalSession(800);
  auto strategy = GetParam().make({});
  SessionReport report = session.Run(*strategy, 40.0);
  EXPECT_LE(report.result.cost_spent, 40.0);
}

TEST_P(FdStrategyTest, ZeroBudgetAcceptsNothing) {
  Session session = MakeHospitalSession(600);
  auto strategy = GetParam().make({});
  SessionReport report = session.Run(*strategy, 0.0);
  EXPECT_EQ(report.result.questions_asked, 0);
  EXPECT_TRUE(report.result.accepted_fds.Empty());
  EXPECT_EQ(report.metrics.detections, 0u);
}

TEST_P(FdStrategyTest, AcceptedFdsAreTrue) {
  // Every accepted FD was validated by the expert, so it must be implied by
  // the true FD set. This is the "FD questions have no false positives"
  // property of §7.2.2.
  Session session = MakeHospitalSession(1000);
  auto strategy = GetParam().make({});
  SessionReport report = session.Run(*strategy, 500.0);
  ClosureEngine true_closure(session.true_fds());
  for (const Fd& fd : report.result.accepted_fds) {
    EXPECT_TRUE(true_closure.Implies(fd)) << fd.ToString();
  }
}

TEST_P(FdStrategyTest, FalseViolationRateIsLow) {
  Session session = MakeHospitalSession(1200);
  auto strategy = GetParam().make({});
  SessionReport report = session.Run(*strategy, 500.0);
  EXPECT_LE(report.metrics.FalseViolationPct(), 10.0);
}

TEST_P(FdStrategyTest, MoreBudgetDetectsAtLeastAsMuch) {
  Session session = MakeHospitalSession(1200);
  auto strategy = GetParam().make({});
  const double small =
      session.Run(*strategy, 20.0).metrics.TrueViolationPct();
  const double large =
      session.Run(*strategy, 800.0).metrics.TrueViolationPct();
  EXPECT_GE(large, small);
}

INSTANTIATE_TEST_SUITE_P(
    AllFdStrategies, FdStrategyTest,
    ::testing::Values(FdCase{"bmc", &MakeFdQBudgetedMaxCoverage},
                      FdCase{"greedy", &MakeFdQGreedy},
                      FdCase{"oracle", &MakeFdQOracle}),
    [](const ::testing::TestParamInfo<FdCase>& info) {
      return info.param.name;
    });

TEST(FdStrategyTest, BmcReachesHighRecallUnderSystematicErrors) {
  // §7.2.2 / Fig. 4(a): with systematic errors a few FDs carry most
  // violations, so BMC detects nearly everything on a moderate budget.
  Session session = MakeHospitalSession(1500, ErrorModel::kSystematic);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionReport report = session.Run(*strategy, 400.0);
  EXPECT_GE(report.metrics.TrueViolationPct(), 80.0);
}

TEST(FdStrategyTest, OracleNeverAsksInvalidFds) {
  Session session = MakeHospitalSession(1000);
  auto strategy = MakeFdQOracle({});
  SessionReport report = session.Run(*strategy, 300.0);
  // Every question the oracle paid for produced an accepted FD (the expert
  // answers yes for all implied FDs when idk_rate is 0).
  EXPECT_EQ(report.result.questions_asked,
            static_cast<int>(report.result.accepted_fds.Size()));
}

TEST(FdStrategyTest, BmcBeatsGreedyOnSmallBudgets) {
  Session session = MakeHospitalSession(1500, ErrorModel::kSystematic);
  auto bmc = MakeFdQBudgetedMaxCoverage({});
  auto greedy = MakeFdQGreedy({});
  double bmc_wins = 0, rounds = 0;
  for (double budget : {30.0, 60.0, 120.0, 240.0}) {
    const double b = session.Run(*bmc, budget).metrics.TrueViolationPct();
    const double g = session.Run(*greedy, budget).metrics.TrueViolationPct();
    if (b >= g) ++bmc_wins;
    ++rounds;
  }
  EXPECT_GE(bmc_wins / rounds, 0.5);
}

TEST(FdStrategyTest, MergedQuestionsStayWithinCap) {
  Session session = MakeHospitalSession(800);
  FdStrategyOptions opts;
  opts.allow_non_minimal = true;
  opts.max_merged_candidates = 3;
  auto strategy = MakeFdQBudgetedMaxCoverage(opts);
  // Just verifying the pool construction does not blow up and still runs.
  SessionReport report = session.Run(*strategy, 200.0);
  EXPECT_GE(report.result.questions_asked, 1);
}

TEST(FdStrategyTest, IdkReducesCoverageForFixedBudget) {
  Session fluent = MakeHospitalSession(1200, ErrorModel::kSystematic, 0.15,
                                       5, /*idk_rate=*/0.0);
  Session hesitant = MakeHospitalSession(1200, ErrorModel::kSystematic, 0.15,
                                         5, /*idk_rate=*/0.8);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  const double fluent_pct =
      fluent.Run(*strategy, 150.0).metrics.TrueViolationPct();
  const double hesitant_pct =
      hesitant.Run(*strategy, 150.0).metrics.TrueViolationPct();
  EXPECT_LE(hesitant_pct, fluent_pct);
}

TEST(FdStrategyGoldenTest, ReportsArePinned) {
  // Report bytes of the three FD strategies on the small Hospital session
  // of CellStrategyGoldenTest. Each run's question pool mixes candidate
  // questions with merged non-minimal ones, so both kinds of violation
  // set feed these digests. A mismatch is a behaviour change.
  struct Golden {
    double idk;
    double budget;
    uint64_t bmc;
    uint64_t greedy;
    uint64_t oracle;
  };
  const Golden goldens[] = {
      {0.0, 30.0, 0x2ac07e189fc16668ULL, 0x490fd6fa54a9adeaULL,
       0x91aea0ebf8a23df9ULL},
      {0.0, 120.0, 0xcb56fefd10c95ff5ULL, 0x2e248fe6fab68931ULL,
       0x7e28888f6fa911e0ULL},
      {0.25, 30.0, 0xf4d8926118aa0947ULL, 0xbc7c1ee875ec139cULL,
       0xfab8eeb270814a4fULL},
      {0.25, 120.0, 0x98419c661204eac2ULL, 0x91100d7904e38ed5ULL,
       0x76ebb0ad44f6c3cfULL},
  };
  for (const Golden& golden : goldens) {
    Session session = MakeHospitalSession(600, ErrorModel::kSystematic, 0.15,
                                          5, golden.idk);
    auto bmc = MakeFdQBudgetedMaxCoverage({});
    auto greedy = MakeFdQGreedy({});
    auto oracle = MakeFdQOracle({});
    EXPECT_EQ(ReportDigest(session.Run(*bmc, golden.budget)), golden.bmc)
        << "FDQ-BMC idk=" << golden.idk << " budget=" << golden.budget;
    EXPECT_EQ(ReportDigest(session.Run(*greedy, golden.budget)),
              golden.greedy)
        << "FDQ-Greedy idk=" << golden.idk << " budget=" << golden.budget;
    EXPECT_EQ(ReportDigest(session.Run(*oracle, golden.budget)),
              golden.oracle)
        << "FDQ-Oracle idk=" << golden.idk << " budget=" << golden.budget;
  }
}

TEST(FdStrategyEquivalenceTest, MatchesRescanReference) {
  // The shared merged-question pool and the incremental uncovered counts
  // must ask the questions of the per-run build and epoch recount
  // (tests/reference/fd_rescan), hence report the same bytes: with IDK
  // answers (the merged variants stay askable), wrong answers (a "yes" on
  // a false FD covers cells), on Tax (many same-RHS candidates, so the cap
  // truncates the pair enumeration), and under a pool cap smaller than
  // the shared pool.
  std::vector<std::pair<std::string, Session>> sessions;
  sessions.emplace_back("hospital", MakeHospitalSession(600));
  sessions.emplace_back("hospital idk=0.25",
                        MakeHospitalSession(600, ErrorModel::kSystematic,
                                            0.15, 5, /*idk_rate=*/0.25));
  sessions.emplace_back(
      "hospital wrong=0.1",
      MakeHospitalSession(600, ErrorModel::kSystematic, 0.15, 5, 0.0,
                          /*wrong_rate=*/0.1));
  sessions.emplace_back("tax", MakeTaxSession(300));
  const FdCase shipped[] = {{"bmc", &MakeFdQBudgetedMaxCoverage},
                            {"greedy", &MakeFdQGreedy},
                            {"oracle", &MakeFdQOracle}};
  const FdCase reference[] = {{"bmc", &MakeRescanFdQBudgetedMaxCoverage},
                              {"greedy", &MakeRescanFdQGreedy},
                              {"oracle", &MakeRescanFdQOracle}};
  for (const auto& [label, session] : sessions) {
    // The larger cap first, so the smaller one is served from a pool
    // already built past it.
    for (int cap : {200, 3}) {
      FdStrategyOptions options;
      options.max_merged_candidates = cap;
      for (double budget : {30.0, 120.0}) {
        for (size_t k = 0; k < std::size(shipped); ++k) {
          SCOPED_TRACE(::testing::Message()
                       << label << " " << shipped[k].name << " cap=" << cap
                       << " budget=" << budget);
          auto a = shipped[k].make(options);
          auto b = reference[k].make(options);
          EXPECT_EQ(SerializeSessionReport(session.Run(*a, budget)),
                    SerializeSessionReport(session.Run(*b, budget)));
        }
      }
    }
  }
}

}  // namespace
}  // namespace uguide
