#include <gtest/gtest.h>

#include "core/cell_strategies.h"
#include "core/fd_strategies.h"
#include "core/metrics.h"
#include "core/session.h"
#include "core/tuple_strategies.h"
#include "fd/closure.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

TEST(MetricsTest, CountsAreConsistent) {
  Session session = MakeHospitalSession(800);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionReport report = session.Run(*strategy, 300.0);
  const DetectionMetrics& m = report.metrics;
  EXPECT_EQ(m.true_positives + m.false_positives, m.detections);
  EXPECT_EQ(m.true_positives + m.false_negatives, m.total_true_errors);
  EXPECT_GE(m.Precision(), 0.0);
  EXPECT_LE(m.Precision(), 1.0);
  EXPECT_GE(m.Recall(), 0.0);
  EXPECT_LE(m.Recall(), 1.0);
  EXPECT_LE(m.TrueViolationPct(), 100.0);
  EXPECT_LE(m.FalseViolationPct(), 100.0);
}

TEST(MetricsTest, EmptyAcceptedSetDetectsNothing) {
  Session session = MakeHospitalSession(600);
  DetectionMetrics m = EvaluateDetections(session.dirty(), FdSet(),
                                          session.true_violations());
  EXPECT_EQ(m.detections, 0u);
  EXPECT_EQ(m.TrueViolationPct(), 0.0);
  EXPECT_EQ(m.FalseViolationPct(), 0.0);
  EXPECT_EQ(m.Precision(), 1.0);
  EXPECT_EQ(m.F1(), 0.0);
}

TEST(MetricsTest, TrueFdsDetectAllTrueViolations) {
  // Issuing the full true FD set over the dirty table flags exactly E_T:
  // 100% true violations, zero false positives, and every injected error
  // covered.
  Session session = MakeHospitalSession(1000);
  DetectionMetrics m =
      EvaluateDetections(session.dirty(), session.true_fds(),
                         session.true_violations(), &session.truth());
  EXPECT_EQ(m.TrueViolationPct(), 100.0);
  EXPECT_EQ(m.false_positives, 0u);
  EXPECT_EQ(m.InjectedRecallPct(), 100.0);
}

TEST(MetricsTest, AllDetectionsDeduplicates) {
  Session session = MakeHospitalSession(600);
  // Duplicate FDs in different forms flag overlapping cells.
  std::vector<Cell> cells =
      AllDetections(session.dirty(), session.true_fds());
  for (size_t i = 1; i < cells.size(); ++i) {
    EXPECT_TRUE(cells[i - 1] < cells[i]);
  }
}

TEST(MetricsTest, ToStringMentionsCounts) {
  DetectionMetrics m;
  m.detections = 10;
  m.true_positives = 7;
  m.false_positives = 3;
  m.false_negatives = 1;
  m.total_true_errors = 8;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("TP=7"), std::string::npos);
  EXPECT_NE(s.find("FP=3"), std::string::npos);
}

TEST(SessionTest, CreateRejectsSchemaMismatch) {
  Relation clean(Schema::Make({"a", "b"}).ValueOrDie());
  clean.AddRow({"1", "2"});
  Relation other(Schema::Make({"x", "y"}).ValueOrDie());
  other.AddRow({"1", "2"});
  DirtyDataset ds{other, GroundTruth()};
  EXPECT_FALSE(Session::Create(clean, std::move(ds), {}).ok());
}

TEST(SessionTest, CandidatesImplyTrueFds) {
  // The §3.1 guarantee carried through the full pipeline.
  Session session = MakeHospitalSession(1200);
  ClosureEngine candidate_closure(session.candidates());
  for (const Fd& fd : session.true_fds()) {
    EXPECT_TRUE(candidate_closure.Implies(fd)) << fd.ToString();
  }
}

TEST(SessionTest, RunIsRepeatable) {
  Session session = MakeHospitalSession(800);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionReport a = session.Run(*strategy, 200.0);
  SessionReport b = session.Run(*strategy, 200.0);
  EXPECT_EQ(a.result.accepted_fds.Size(), b.result.accepted_fds.Size());
  EXPECT_EQ(a.metrics.true_positives, b.metrics.true_positives);
  EXPECT_EQ(a.result.cost_spent, b.result.cost_spent);
}

TEST(SessionTest, ReportCarriesStrategyName) {
  Session session = MakeHospitalSession(600);
  auto strategy = MakeCellQSums({});
  SessionReport report = session.Run(*strategy, 50.0);
  EXPECT_EQ(report.strategy_name, "CellQ-SUMS");
}

TEST(SessionTest, ComparativeShapeMatchesPaper) {
  // Figure 6's qualitative story on one fixture:
  //  - FD questions: near-zero false violations;
  //  - tuple questions: full recall, highest false rate;
  //  - cell questions: in between on recall at equal budget.
  Session session = MakeHospitalSession(1500);
  auto fdq = MakeFdQBudgetedMaxCoverage({});
  auto cellq = MakeCellQSums({});
  auto tupleq = MakeTupleSamplingSaturationSets({});
  const double budget = 1000.0;
  SessionReport fd_report = session.Run(*fdq, budget);
  SessionReport cell_report = session.Run(*cellq, budget);
  SessionReport tuple_report = session.Run(*tupleq, budget);

  EXPECT_LE(fd_report.metrics.FalseViolationPct(), 5.0);
  EXPECT_GE(tuple_report.metrics.TrueViolationPct(), 99.0);
  EXPECT_GE(tuple_report.metrics.FalseViolationPct(),
            fd_report.metrics.FalseViolationPct());
}

TEST(SessionTest, MajorityVotingScalesBudgetByVotes) {
  // expert_votes = v charges the strategy an effective budget of B/v: each
  // question really costs v expert consultations.
  DataGenOptions data;
  data.rows = 800;
  data.seed = 5;
  Relation clean = GenerateHospital(data);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
  ErrorGenOptions errors;
  errors.seed = 6;
  DirtyDataset dirty = InjectErrors(clean, true_fds, errors).ValueOrDie();

  auto run = [&](int votes, double budget) {
    SessionConfig config;
    config.candidate_options.max_lhs_size = 3;
    config.expert_votes = votes;
    DirtyDataset copy = dirty;
    Session session =
        Session::Create(clean, std::move(copy), config).ValueOrDie();
    auto strategy = MakeFdQBudgetedMaxCoverage({});
    return session.Run(*strategy, budget);
  };

  const double budget = 300.0;
  SessionReport voted = run(3, budget);
  // The strategy can never spend past the scaled budget...
  EXPECT_LE(voted.result.cost_spent, budget / 3);
  // ...and with a perfectly reliable expert, a 3-vote run behaves exactly
  // like a 1-vote run given a third of the budget (the majority of three
  // identical answers is that answer).
  SessionReport third = run(1, budget / 3);
  EXPECT_EQ(voted.result.questions_asked, third.result.questions_asked);
  EXPECT_EQ(voted.result.cost_spent, third.result.cost_spent);
  EXPECT_EQ(voted.result.accepted_fds.Size(),
            third.result.accepted_fds.Size());
}

TEST(SessionTest, NoisyExpertDegradesDetection) {
  // §9 future work: incorrect answers hurt; majority voting (at 3x the
  // per-question effort) recovers most of the loss.
  DataGenOptions data;
  data.rows = 1200;
  data.seed = 5;
  Relation clean = GenerateHospital(data);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
  ErrorGenOptions errors;
  errors.seed = 6;
  DirtyDataset dirty = InjectErrors(clean, true_fds, errors).ValueOrDie();

  auto run = [&](double wrong_rate, int votes) {
    SessionConfig config;
    config.candidate_options.max_lhs_size = 3;
    config.wrong_rate = wrong_rate;
    config.expert_votes = votes;
    DirtyDataset copy = dirty;
    Session session =
        Session::Create(clean, std::move(copy), config).ValueOrDie();
    auto strategy = MakeFdQBudgetedMaxCoverage({});
    return session.Run(*strategy, 900.0).metrics;
  };

  const DetectionMetrics reliable = run(0.0, 1);
  const DetectionMetrics noisy = run(0.3, 1);
  const DetectionMetrics voting = run(0.3, 3);
  EXPECT_GT(reliable.TrueViolationPct(), noisy.TrueViolationPct());
  // A wrong "valid" answer admits a false FD: the noisy run's false rate
  // must be recoverable by voting.
  EXPECT_LE(voting.FalseViolationPct(), noisy.FalseViolationPct() + 1.0);
  EXPECT_GE(voting.TrueViolationPct(), noisy.TrueViolationPct() - 5.0);
}

TEST(SessionTest, CompletesOnMemoryTruncatedCandidates) {
  // A memory cap cuts candidate generation short; the session must
  // consume the partial lattice exactly as it does a deadline-truncated
  // one: run to completion, produce a coherent report, flag the truncation.
  DataGenOptions data;
  data.rows = 800;
  data.seed = 5;
  Relation clean = GenerateHospital(data);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
  ErrorGenOptions errors;
  errors.seed = 6;
  DirtyDataset dirty = InjectErrors(clean, true_fds, errors).ValueOrDie();

  SessionConfig config;
  config.candidate_options.max_lhs_size = 3;
  config.candidate_options.memory_limit_bytes = 48 * 1024;
  Session session =
      Session::Create(clean, std::move(dirty), config).ValueOrDie();
  ASSERT_TRUE(session.discovery_memory_truncated());
  EXPECT_FALSE(session.discovery_truncated());  // distinct causes

  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionReport report = session.Run(*strategy, 300.0);
  EXPECT_GE(report.result.questions_asked, 0);
  EXPECT_LE(report.result.cost_spent, 300.0);
  // Every accepted FD came from the (partial) candidate set.
  for (const Fd& fd : report.result.accepted_fds) {
    EXPECT_TRUE(session.candidates().Contains(fd)) << fd.ToString();
  }
}

TEST(SessionTest, CreateIsIdenticalAtEveryThreadCount) {
  // candidate_options.num_threads drives both the clean-table walk for
  // Sigma_TC and candidate generation; neither may change a byte.
  DataGenOptions data;
  data.rows = 800;
  data.seed = 5;
  Relation clean = GenerateHospital(data);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
  ErrorGenOptions errors;
  errors.seed = 6;
  const DirtyDataset dirty =
      InjectErrors(clean, true_fds, errors).ValueOrDie();

  auto create = [&](int threads) {
    SessionConfig config;
    config.candidate_options.max_lhs_size = 3;
    config.candidate_options.num_threads = threads;
    return Session::Create(clean, dirty, config).ValueOrDie();
  };
  const Session serial = create(1);
  const Session parallel = create(4);
  EXPECT_EQ(parallel.true_fds().fds(), serial.true_fds().fds());
  EXPECT_EQ(parallel.exact_fds().fds(), serial.exact_fds().fds());
  EXPECT_EQ(parallel.candidates().fds(), serial.candidates().fds());
  for (auto make : {+[] { return MakeFdQBudgetedMaxCoverage({}); },
                    +[] { return MakeCellQSums({}); },
                    +[] { return MakeTupleSamplingSaturationSets({}); }}) {
    auto one = make();
    auto four = make();
    EXPECT_EQ(SerializeSessionReport(parallel.Run(*four, 150.0)),
              SerializeSessionReport(serial.Run(*one, 150.0)))
        << one->name();
  }
}

}  // namespace
}  // namespace uguide
