// The shared ViolationArtifact: a Session builds one lazily and every run
// reads it. These tests pin the two ways sharing could go wrong — a moved
// or copied Session reading an artifact bound to another Session's
// relation, and concurrent runs racing the first build or each other — by
// requiring every report to equal its solo report. CI runs this binary
// under ASan/UBSan and under the blocking TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/session_state.h"
#include "server/dataset.h"
#include "server/dataset_registry.h"
#include "server/protocol.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

constexpr double kBudget = 20.0;

std::string Report(const Session& session, const std::string& name) {
  auto strategy = MakeStrategyByName(name).ValueOrDie();
  return SerializeSessionReport(session.Run(*strategy, kBudget));
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
    const Session& session, const std::vector<std::string>& names) {
  std::vector<std::string> got(names.size());
  std::atomic<int> waiting{static_cast<int>(names.size())};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < names.size(); ++i) {
    threads.emplace_back([&, i] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      got[i] = Report(session, names[i]);
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
