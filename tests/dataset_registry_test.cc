// The shared-artifact registry: one build per recipe however many opens
// race it, failed builds not cached, and the determinism and accounting a
// bundle's users rely on — two builds serve byte-identical reports, and
// the budget charge dies with the last reference.

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "oracle/simulated_expert.h"
#include "server/dataset.h"
#include "server/dataset_registry.h"
#include "server/protocol.h"
#include "server/session_manager.h"

namespace uguide {
namespace {

ServedDatasetOptions SmallDataset(uint64_t seed = 7) {
  ServedDatasetOptions options;
  options.rows = 120;
  options.seed = seed;
  return options;
}

TEST(DatasetRegistryTest, ConcurrentOpensBuildExactlyOnce) {
  DatasetRegistry registry;
  constexpr int kOpens = 8;

  // Release every thread into Open at once so they all race the same
  // build: they queue on the registry's mutex while the first builds (the
  // artifact build takes orders of magnitude longer than thread startup
  // skew), then hit.
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;

  std::vector<std::shared_ptr<const DatasetArtifacts>> got(kOpens);
  std::vector<std::thread> threads;
  for (int i = 0; i < kOpens; ++i) {
    threads.emplace_back([&, i] {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++ready == kOpens) cv.notify_all();
        cv.wait(lock, [&] { return go; });
      }
      got[i] = registry.Open(SmallDataset()).ValueOrDie();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready == kOpens; });
    go = true;
    cv.notify_all();
  }
  for (std::thread& t : threads) t.join();

  for (int i = 1; i < kOpens; ++i) EXPECT_EQ(got[i], got[0]);
  const DatasetRegistryStats stats = registry.stats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_EQ(stats.hits, kOpens - 1);
}

TEST(DatasetRegistryTest, RepeatOpenHitsWithoutRegenerating) {
  DatasetRegistry registry;
  auto first = registry.Open(SmallDataset()).ValueOrDie();
  auto second = registry.Open(SmallDataset()).ValueOrDie();
  EXPECT_EQ(first, second);
  EXPECT_EQ(registry.stats().builds, 1);
  EXPECT_EQ(registry.stats().hits, 1);
}

TEST(DatasetRegistryTest, DistinctRecipesGetDistinctEntries) {
  DatasetRegistry registry;
  auto a = registry.Open(SmallDataset(/*seed=*/7)).ValueOrDie();
  auto b = registry.Open(SmallDataset(/*seed=*/8)).ValueOrDie();
  EXPECT_NE(a, b);
  EXPECT_NE(a->key.content_hash, b->key.content_hash);
  EXPECT_EQ(registry.stats().builds, 2);
}

TEST(DatasetRegistryTest, ThreadCountDoesNotChangeTheKey) {
  // num_threads only parallelizes the build; outputs are bit-identical,
  // so it must not fragment the cache.
  ServedDatasetOptions serial = SmallDataset();
  serial.num_threads = 1;
  ServedDatasetOptions parallel = SmallDataset();
  parallel.num_threads = 4;
  EXPECT_EQ(ServedDatasetSignature(serial), ServedDatasetSignature(parallel));
}

// Serves one full FDQ-BMC session against shared artifacts, exactly as the
// daemon wires them (the manager serves the bundle's session, whose
// artifact the registry built), and returns the wire report.
std::string ServeReport(const DatasetArtifacts& artifacts, double budget) {
  SessionManager manager(&artifacts.session, {});

  const SessionConfig& config = artifacts.session.config();
  SimulatedExpert expert(&artifacts.session.true_violations(),
                         &artifacts.session.truth(),
                         artifacts.session.dirty().NumAttributes(),
                         artifacts.session.true_fds(), config.idk_rate,
                         config.expert_seed, config.wrong_rate);

  ClientFrame open;
  open.op = ClientOp::kOpen;
  open.id = "r1";
  open.strategy = "FDQ-BMC";
  open.budget = budget;
  open.has_budget = true;
  std::vector<std::string> replies =
      manager.HandleLine(FormatClientFrame(open));
  EXPECT_EQ(replies.size(), 1u);
  ServerFrame frame = ParseServerFrame(replies.at(0)).ValueOrDie();
  int rounds = 0;
  while (frame.type == ServerFrameType::kQuestion) {
    EXPECT_LT(++rounds, 10000);
    ClientFrame reply;
    reply.op = ClientOp::kAnswer;
    reply.id = "r1";
    reply.seq = frame.question.index;
    reply.answer = AskQuestion(expert, frame.question);
    replies = manager.HandleLine(FormatClientFrame(reply));
    EXPECT_EQ(replies.size(), 1u);
    frame = ParseServerFrame(replies.at(0)).ValueOrDie();
  }
  EXPECT_EQ(frame.type, ServerFrameType::kReport);
  return frame.report;
}

TEST(DatasetRegistryTest, FailedBuildIsNotCached) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("registry.build=unavailable@1").ok());
  auto failed = registry.Open(SmallDataset());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(registry.stats().builds, 0);

  // The next Open retries the build instead of replaying the failure.
  ASSERT_TRUE(registry.Open(SmallDataset()).ok());
  EXPECT_EQ(registry.stats().builds, 1);
  EXPECT_EQ(registry.stats().hits, 0);
  FaultRegistry::Global().Reset();
}

TEST(DatasetRegistryTest, SeparateBuildsServeIdenticalReports) {
  // The build is deterministic: bundles built by two registries serve
  // byte-identical reports.
  DatasetRegistry first;
  DatasetRegistry second;
  auto a = first.Open(SmallDataset()).ValueOrDie();
  auto b = second.Open(SmallDataset()).ValueOrDie();
  ASSERT_NE(a, b);
  EXPECT_EQ(a->key.content_hash, b->key.content_hash);
  EXPECT_EQ(ServeReport(*a, /*budget=*/16.0), ServeReport(*b, /*budget=*/16.0));
}

}  // namespace
}  // namespace uguide
