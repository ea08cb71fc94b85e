// The shared ViolationArtifact: a Session builds one lazily and every run
// reads it. These tests pin the ways sharing could go wrong — a moved or
// copied Session reading an artifact bound to another Session's relation,
// concurrent runs racing the first build of the artifact or of one of its
// lazily built pieces, and a run writing through a shared piece or
// reading one built for other options — by requiring every report to
// equal its solo report. CI runs this binary under ASan/UBSan and under
// the blocking TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cell_strategies.h"
#include "core/session.h"
#include "core/session_state.h"
#include "fd/closure.h"
#include "oracle/simulated_expert.h"
#include "server/dataset.h"
#include "server/dataset_registry.h"
#include "server/protocol.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

constexpr double kBudget = 20.0;

std::string Report(const Session& session, const std::string& name,
                   double budget = kBudget) {
  auto strategy = MakeStrategyByName(name).ValueOrDie();
  return SerializeSessionReport(session.Run(*strategy, budget));
}

// One strategy of each family that reads the artifact differently: a
// GraphView (HS), the cell classes (SUMS), CellsOfFd plus the lazily built
// merged-question pool (BMC), and the per-tuple violation counts
// (Sampling-Violation).
const std::vector<std::string>& MixedStrategies() {
  static const std::vector<std::string> names = {
      "CellQ-HS", "CellQ-SUMS", "FDQ-BMC", "Sampling-Violation"};
  return names;
}

std::map<std::string, std::string> Reports(const Session& session) {
  std::map<std::string, std::string> out;
  for (const std::string& name : MixedStrategies()) {
    out[name] = Report(session, name);
  }
  return out;
}

// The artifact a session hands its runs must read that session's own
// relation.
void ExpectOwnArtifact(const Session& session, const std::string& what) {
  EXPECT_EQ(&session.artifact().engine().relation(), &session.dirty()) << what;
}

TEST(ArtifactTest, MovedAndCopiedSessionsNeverReuseAnotherSessionsArtifact) {
  std::optional<Session> source(MakeHospitalSession(300));
  const std::map<std::string, std::string> want = Reports(*source);
  ExpectOwnArtifact(*source, "source");

  // Move a used session, then destroy the source: a carried-over artifact
  // would now point into freed memory.
  Session moved = std::move(*source);
  source.reset();
  ExpectOwnArtifact(moved, "moved");
  EXPECT_EQ(Reports(moved), want);

  // Copy after use; the copy builds its own.
  Session copy = moved;
  ExpectOwnArtifact(copy, "copy");
  EXPECT_EQ(Reports(copy), want);

  // Assign over a session whose artifact was already built on other data.
  Session assigned = MakeHospitalSession(200);
  ExpectOwnArtifact(assigned, "assigned before");
  assigned = copy;
  ExpectOwnArtifact(assigned, "assigned");
  EXPECT_EQ(Reports(assigned), want);

  // Reassign an optional slot, the pattern of a driver that re-creates its
  // session between repetitions.
  std::optional<Session> slot(MakeHospitalSession(200));
  ExpectOwnArtifact(*slot, "slot before");
  slot = std::move(copy);
  ExpectOwnArtifact(*slot, "slot");
  EXPECT_EQ(Reports(*slot), want);

  // A rebase onto the same bytes reads a fresh artifact over its own copy.
  Session rebased = Session::Rebase(moved, Relation(moved.dirty()));
  ExpectOwnArtifact(rebased, "rebased");
  EXPECT_EQ(Reports(rebased), want);
}

// Runs every strategy of `names` on its own thread over `session`, all
// released together so they race whatever is still unbuilt, and returns
// each thread's report.
std::vector<std::string> RunConcurrently(
    const Session& session, const std::vector<std::string>& names,
    double budget = kBudget) {
  std::vector<std::string> got(names.size());
  std::atomic<int> waiting{static_cast<int>(names.size())};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < names.size(); ++i) {
    threads.emplace_back([&, i] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      got[i] = Report(session, names[i], budget);
    });
  }
  for (std::thread& t : threads) t.join();
  return got;
}

std::vector<std::string> EightRuns() {
  std::vector<std::string> names = MixedStrategies();
  for (const char* more : {"CellQ-Oracle", "FDQ-Oracle", "FDQ-Greedy",
                           "Sampling-Uniform"}) {
    names.push_back(more);
  }
  return names;
}

TEST(ArtifactTest, ConcurrentRunsRaceTheLazyBuildAndMatchSoloReports) {
  const std::vector<std::string> names = EightRuns();
  ASSERT_EQ(names.size(), 8u);
  const Session solo_session = MakeHospitalSession(300);
  std::map<std::string, std::string> solo;
  for (const std::string& name : names) solo[name] = Report(solo_session, name);

  // Nothing has asked this session for its artifact yet: all eight runs
  // race its first build, and FDQ-BMC and FDQ-Oracle then race the first
  // build of its merged-question pool.
  const Session shared = MakeHospitalSession(300);
  const std::vector<std::string> got = RunConcurrently(shared, names);
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(got[i], solo[names[i]]) << names[i];
  }
}

TEST(ArtifactTest, ConcurrentFdRunsRaceTheLazyQuestionPool) {
  // The artifact is built first, so these runs race only the FD question
  // pool: FDQ-BMC and FDQ-Oracle ask for its merged questions, while
  // FDQ-Greedy asks for none and may build the small pool that a merged
  // request then rebuilds under it.
  const std::vector<std::string> names = {"FDQ-BMC", "FDQ-Oracle",
                                          "FDQ-Greedy", "FDQ-BMC",
                                          "FDQ-Oracle", "FDQ-Greedy"};
  const Session solo_session = MakeHospitalSession(300);
  std::map<std::string, std::string> solo;
  for (const std::string& name : names) solo[name] = Report(solo_session, name);

  const Session shared = MakeHospitalSession(300);
  const size_t unpooled = shared.artifact().ApproxMemoryBytes();
  const std::vector<std::string> got = RunConcurrently(shared, names);
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(got[i], solo[names[i]]) << names[i];
  }
  // Once built, the pool is counted in the artifact's footprint.
  EXPECT_GT(shared.artifact().ApproxMemoryBytes(), unpooled);
}

TEST(ArtifactTest, SaturatedFamilyServesEverySmallerCapWithoutRebuilding) {
  const Session session = MakeHospitalSession(300);
  const ViolationArtifact& artifact = session.artifact();
  const FdSet& exact = session.exact_fds();
  const int m = session.dirty().NumAttributes();
  const AttributeSet full = AttributeSet::Full(m);
  // SaturatedSets(Sigma_T, m, cap) without the full set, as Alg. 8 uses it.
  auto want = [&](size_t cap) {
    std::vector<AttributeSet> sets;
    for (const AttributeSet& w : SaturatedSets(exact, m, cap)) {
      if (w != full) sets.push_back(w);
    }
    return sets;
  };
  auto got = [&](const SaturatedFamily& family, size_t cap) {
    std::vector<AttributeSet> sets;
    for (int i = 0; i < family.Limit(cap); ++i) {
      sets.push_back(family.set(i));
      EXPECT_EQ(family.IndexOf(family.set(i)), i);
    }
    return sets;
  };
  // 100 sets do not exhaust this lattice, so the 5000 request must grow
  // the family.
  ASSERT_GT(want(5000).size(), 100u);

  const size_t before = artifact.ApproxMemoryBytes();
  const std::shared_ptr<const SaturatedFamily> small =
      artifact.SaturatedSetFamily(exact, 100);
  EXPECT_EQ(got(*small, 100), want(100));
  EXPECT_GT(artifact.ApproxMemoryBytes(), before);

  const std::shared_ptr<const SaturatedFamily> large =
      artifact.SaturatedSetFamily(exact, 5000);
  EXPECT_NE(large, small);
  EXPECT_EQ(got(*large, 5000), want(5000));
  // The replaced family stays whole for a run still holding it.
  EXPECT_EQ(got(*small, 100), want(100));

  const std::shared_ptr<const SaturatedFamily> again =
      artifact.SaturatedSetFamily(exact, 100);
  EXPECT_EQ(again, large);
  EXPECT_EQ(got(*again, 100), want(100));
  EXPECT_EQ(again->IndexOf(full), -1);
}

TEST(ArtifactTest, ConcurrentSaturationRunsRaceTheLazyFamily) {
  // A tuple question costs one unit per attribute: this budget asks a few
  // dozen, so the runs retire saturated sets as the sample grows.
  const double budget = 500.0;
  const std::vector<std::string> names(8, "Sampling-Saturation");
  const Session solo_session = MakeHospitalSession(300);
  const std::string solo = Report(solo_session, names.front(), budget);
  ASSERT_NE(solo.find("questions_asked="), std::string::npos);
  EXPECT_EQ(solo.find("questions_asked=0\n"), std::string::npos);

  // The artifact is built first, so the eight runs race only the first
  // build of the saturated-set family.
  const Session shared = MakeHospitalSession(300);
  const size_t unbuilt = shared.artifact().ApproxMemoryBytes();
  const std::vector<std::string> got = RunConcurrently(shared, names, budget);
  for (const std::string& report : got) EXPECT_EQ(report, solo);
  // Once built, the family is counted in the artifact's footprint.
  EXPECT_GT(shared.artifact().ApproxMemoryBytes(), unbuilt);
}

// `strategy`'s report on `data`, read through `artifact` (built over the
// same relation and candidates) instead of `data`'s own, answered by
// `data`'s expert.
std::string ReportOver(const Session& data, const ViolationArtifact& artifact,
                       Strategy& strategy) {
  const SessionConfig& config = data.config();
  SimulatedExpert expert(&data.true_violations(), &data.truth(),
                         data.dirty().NumAttributes(), data.true_fds(),
                         config.idk_rate, config.expert_seed,
                         config.wrong_rate);
  SessionStepOptions options;
  options.artifact = &artifact;
  std::unique_ptr<SessionStateMachine> machine =
      SessionStateMachine::Start(data, strategy, kBudget, options)
          .ValueOrDie();
  while (std::optional<SessionQuestion> q = machine->NextQuestion()) {
    EXPECT_TRUE(machine->SubmitAnswer({AskQuestion(expert, *q)}).ok());
  }
  return SerializeSessionReport(machine->Finish().ValueOrDie());
}

// A SUMS run on a fresh session of the recipe, which builds its own
// artifact and its own prefix.
std::string SoloSums(double idk_rate, const CellStrategyOptions& options) {
  const Session fresh = MakeHospitalSession(
      300, ErrorModel::kSystematic, 0.15, 5, idk_rate);
  auto strategy = MakeCellQSums(options);
  return SerializeSessionReport(fresh.Run(*strategy, kBudget));
}

TEST(ArtifactTest, SumsRunsShareOnePrefixPerOptionsWithoutWritingThroughIt) {
  const Session shared = MakeHospitalSession(300);
  const ViolationArtifact& artifact = shared.artifact();
  const Session idk = MakeHospitalSession(300, ErrorModel::kSystematic,
                                          0.15, 5, /*idk_rate=*/0.3);
  const CellStrategyOptions defaults;
  CellStrategyOptions loose;
  loose.sums_tolerance = 0.25;
  // The looser fixpoint must pick other questions, or reusing the default
  // prefix for it would go unnoticed.
  ASSERT_NE(SoloSums(0.0, loose), SoloSums(0.0, defaults));

  const size_t before = artifact.ApproxMemoryBytes();
  auto sums = MakeCellQSums(defaults);
  EXPECT_EQ(ReportOver(shared, artifact, *sums), SoloSums(0.0, defaults));
  const size_t one_prefix = artifact.ApproxMemoryBytes();
  EXPECT_GT(one_prefix, before);
  // A second run starts from the prefix the first one built: any write
  // through it shows up here.
  EXPECT_EQ(ReportOver(idk, artifact, *sums), SoloSums(0.3, defaults));
  EXPECT_EQ(artifact.ApproxMemoryBytes(), one_prefix);

  auto loose_sums = MakeCellQSums(loose);
  EXPECT_EQ(ReportOver(shared, artifact, *loose_sums), SoloSums(0.0, loose));
  EXPECT_GT(artifact.ApproxMemoryBytes(), one_prefix);
}

TEST(ArtifactTest, ConcurrentRunsOverOneRegistryArtifactMatchSoloReports) {
  ServedDatasetOptions recipe;
  recipe.rows = 300;
  recipe.budget = kBudget;
  const std::vector<std::string> names = EightRuns();
  const Session solo_session = MakeServedDataset(recipe).ValueOrDie();
  std::map<std::string, std::string> solo;
  for (const std::string& name : names) solo[name] = Report(solo_session, name);

  DatasetRegistry registry;
  std::shared_ptr<const DatasetArtifacts> artifacts =
      registry.Open(recipe).ValueOrDie();
  // The bundle's engine and graph are its session's artifact, not copies.
  EXPECT_EQ(&artifacts->artifact, &artifacts->session.artifact());
  EXPECT_EQ(artifacts->engine.get(), &artifacts->artifact.engine());
  EXPECT_EQ(&artifacts->graph, &artifacts->artifact.graph());

  const std::vector<std::string> got =
      RunConcurrently(artifacts->session, names);
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(got[i], solo[names[i]]) << names[i];
  }
}

}  // namespace
}  // namespace uguide
