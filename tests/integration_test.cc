#include <gtest/gtest.h>

#include "core/uguide.h"
#include "reference/fd_theory.h"

namespace uguide {
namespace {

// Full pipeline — generator, discovery, injection, candidate generation,
// every strategy family — on each of the three paper datasets at small
// scale.
struct DatasetCase {
  const char* name;
  Relation (*generate)(const DataGenOptions&);
};

class PipelineTest : public ::testing::TestWithParam<DatasetCase> {
 protected:
  Session MakeSession(int rows) {
    DataGenOptions data;
    data.rows = rows;
    data.seed = 9;
    Relation clean = GetParam().generate(data);

    TaneOptions tane;
    tane.max_lhs_size = 3;
    FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();

    ErrorGenOptions errors;
    errors.model = ErrorModel::kSystematic;
    errors.error_rate = 0.12;
    DirtyDataset dirty = InjectErrors(clean, true_fds, errors).ValueOrDie();

    SessionConfig config;
    config.candidate_options.max_lhs_size = 3;
    return Session::Create(clean, std::move(dirty), config).ValueOrDie();
  }
};

TEST_P(PipelineTest, EndToEndAllStrategyFamilies) {
  Session session = MakeSession(900);
  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(MakeCellQHittingSet({}));
  strategies.push_back(MakeCellQSums({}));
  strategies.push_back(MakeCellQGreedy({}));
  strategies.push_back(MakeCellQOracle({}));
  strategies.push_back(MakeFdQBudgetedMaxCoverage({}));
  strategies.push_back(MakeFdQGreedy({}));
  strategies.push_back(MakeFdQOracle({}));
  strategies.push_back(MakeTupleSamplingUniform({}));
  strategies.push_back(MakeTupleSamplingViolationWeighting({}));
  strategies.push_back(MakeTupleSamplingSaturationSets({}));
  strategies.push_back(MakeTupleQOracle({}));

  for (auto& strategy : strategies) {
    SessionReport report = session.Run(*strategy, 400.0);
    EXPECT_LE(report.result.cost_spent, 400.0) << strategy->name();
    const DetectionMetrics& m = report.metrics;
    EXPECT_EQ(m.true_positives + m.false_positives, m.detections)
        << strategy->name();
    EXPECT_EQ(m.true_positives + m.false_negatives, m.total_true_errors)
        << strategy->name();
  }
}

TEST_P(PipelineTest, FdQuestionsDetectWithoutFalsePositives) {
  Session session = MakeSession(900);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionReport report = session.Run(*strategy, 600.0);
  EXPECT_GT(report.metrics.TrueViolationPct(), 50.0);
  EXPECT_LE(report.metrics.FalseViolationPct(), 5.0);
}

TEST_P(PipelineTest, TupleQuestionsReachFullRecall) {
  Session session = MakeSession(900);
  auto strategy = MakeTupleSamplingViolationWeighting({});
  SessionReport report = session.Run(*strategy, 1500.0);
  EXPECT_GE(report.metrics.TrueViolationPct(), 99.0);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, PipelineTest,
    ::testing::Values(DatasetCase{"tax", &GenerateTax},
                      DatasetCase{"hospital", &GenerateHospital},
                      DatasetCase{"stock", &GenerateStock}),
    [](const ::testing::TestParamInfo<DatasetCase>& info) {
      return info.param.name;
    });

TEST(IntegrationTest, CsvRoundTripThroughPipeline) {
  // A relation written to CSV and read back produces identical discovery
  // results -- the on-disk format is faithful.
  DataGenOptions data;
  data.rows = 400;
  Relation original = GenerateHospital(data);
  auto reparsed = Relation::FromCsv(original.ToCsv()).ValueOrDie();
  TaneOptions tane;
  tane.max_lhs_size = 2;
  FdSet a = DiscoverFds(original, tane).ValueOrDie();
  FdSet b = DiscoverFds(reparsed, tane).ValueOrDie();
  EXPECT_EQ(a.Size(), b.Size());
  for (const Fd& fd : a) EXPECT_TRUE(b.Contains(fd)) << fd.ToString();
}

TEST(IntegrationTest, ArmstrongRelationRepresentsDiscoveredFds) {
  // Discover FDs on a generated table, build an Armstrong relation for
  // them, and verify discovery on the Armstrong relation returns an
  // equivalent FD set (the §6 duality).
  DataGenOptions data;
  data.rows = 300;
  Relation rel = GenerateStock(data);
  TaneOptions tane;
  tane.max_lhs_size = 2;
  FdSet fds = DiscoverFds(rel, tane).ValueOrDie();
  Relation armstrong = BuildArmstrongRelation(rel.schema(), fds);
  FdSet rediscovered = DiscoverFds(armstrong).ValueOrDie();
  EXPECT_TRUE(EquivalentTo(ClosureEngine(fds), ClosureEngine(rediscovered)));
}

}  // namespace
}  // namespace uguide
