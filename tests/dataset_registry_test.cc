// The shared-artifact registry: singleflight builds, recipe memoization,
// LRU eviction under a binding soft budget, and the determinism contract
// that makes eviction safe — a rebuilt entry serves byte-identical reports.

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"
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
  // in-flight build (the artifact build takes orders of magnitude longer
  // than thread startup skew).
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
  EXPECT_GT(stats.shared_waits, 0);
  EXPECT_EQ(registry.size(), 1);
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
  EXPECT_FALSE(a->key == b->key);
  EXPECT_EQ(registry.stats().builds, 2);
  EXPECT_EQ(registry.size(), 2);
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
    Answer answer = Answer::kIdk;
    switch (frame.question.kind) {
      case QuestionKind::kCell:
        answer = expert.IsCellErroneous(frame.question.cell);
        break;
      case QuestionKind::kTuple:
        answer = expert.IsTupleClean(frame.question.row);
        break;
      case QuestionKind::kFd:
        answer = expert.IsFdValid(frame.question.fd);
        break;
    }
    ClientFrame reply;
    reply.op = ClientOp::kAnswer;
    reply.id = "r1";
    reply.seq = frame.question.index;
    reply.answer = answer;
    replies = manager.HandleLine(FormatClientFrame(reply));
    EXPECT_EQ(replies.size(), 1u);
    frame = ParseServerFrame(replies.at(0)).ValueOrDie();
  }
  EXPECT_EQ(frame.type, ServerFrameType::kReport);
  return frame.report;
}

TEST(DatasetRegistryTest, EvictsUnderPressureAndRebuildsIdentically) {
  // soft=1 byte: any resident artifact keeps the budget over its soft
  // limit, so eviction fires the moment an entry is unreferenced. hard=0:
  // builds themselves never fail.
  MemoryBudget budget(/*soft_limit_bytes=*/1, /*hard_limit_bytes=*/0);
  ThreadPool pool(2);
  DatasetRegistryOptions registry_options;
  registry_options.pool = &pool;
  registry_options.memory_budget = &budget;
  DatasetRegistry registry(registry_options);

  auto artifacts = registry.Open(SmallDataset()).ValueOrDie();
  EXPECT_GT(artifacts->charged_bytes, 0u);
  EXPECT_TRUE(budget.OverSoftLimit());
  const std::string before = ServeReport(*artifacts, /*budget=*/16.0);

  // Pinned entries never evict, no matter the pressure.
  EXPECT_EQ(registry.EvictIdle(), 0);
  EXPECT_EQ(registry.size(), 1);

  // Released, the entry is LRU-evicted and its charge comes back.
  const size_t charged_resident = budget.charged();
  artifacts.reset();
  EXPECT_EQ(registry.EvictIdle(), 1);
  EXPECT_EQ(registry.size(), 0);
  EXPECT_EQ(registry.stats().evicted, 1);
  EXPECT_LT(budget.charged(), charged_resident);

  // The rebuild is deterministic: a fresh session over the recomputed
  // artifacts serves a byte-identical report.
  auto rebuilt = registry.Open(SmallDataset()).ValueOrDie();
  EXPECT_EQ(registry.stats().builds, 2);
  EXPECT_EQ(ServeReport(*rebuilt, /*budget=*/16.0), before);
}

TEST(DatasetRegistryTest, BreakerQuarantinesFailingRecipeThenRecovers) {
  DatasetRegistryOptions options;
  options.breaker_failures = 3;
  options.breaker_window_ms = 60000.0;
  options.breaker_backoff_ms = 5000.0;
  DatasetRegistry registry(options);

  // The first four build attempts fail at the injected fault site; the
  // clock.tick clause advances the virtual clock 6s per fire, stepping
  // through the breaker's backoff without sleeping.
  ASSERT_TRUE(FaultRegistry::Global()
                  .LoadPlan("registry.build=unavailable@1-4;"
                            "clock.tick=latency:6000")
                  .ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(registry.Open(SmallDataset()).ok());
  }
  EXPECT_EQ(registry.stats().breaker_trips, 1);

  // Quarantined: the refusal is instant (kUnavailable, no build attempt)
  // and says so.
  auto refused = registry.Open(SmallDataset());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.status().message().find("quarantined"),
            std::string::npos);
  EXPECT_EQ(registry.stats().quarantined_opens, 1);

  // Past the backoff, exactly one half-open probe builds — and fails
  // (fault hit #4), re-opening the breaker with a doubled backoff.
  FaultRegistry::Global().OnPoint("clock.tick").IgnoreError();
  EXPECT_FALSE(registry.Open(SmallDataset()).ok());
  EXPECT_EQ(registry.stats().probes, 1);
  EXPECT_FALSE(registry.Open(SmallDataset()).ok());  // refused again
  EXPECT_EQ(registry.stats().quarantined_opens, 2);

  // 12 more virtual seconds clear the doubled (10s) backoff; the fault
  // range is exhausted, so the second probe succeeds and closes the
  // breaker outright.
  FaultRegistry::Global().OnPoint("clock.tick").IgnoreError();
  FaultRegistry::Global().OnPoint("clock.tick").IgnoreError();
  auto recovered = registry.Open(SmallDataset());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(registry.stats().probes, 2);
  EXPECT_EQ(registry.stats().builds, 1);

  // Closed means closed: the next open is a plain cache hit.
  EXPECT_TRUE(registry.Open(SmallDataset()).ok());
  EXPECT_GE(registry.stats().hits, 1);
  FaultRegistry::Global().Reset();
}

}  // namespace
}  // namespace uguide
