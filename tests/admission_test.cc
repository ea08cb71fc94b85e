// The admission gate in front of the serving path: per-client token
// bucket and queue-time deadline — first at the controller level (pure verdict arithmetic on the virtual
// clock), then through SessionManager::HandleLine, where refusals must
// surface as structured error frames with a machine-readable code and a
// retry hint.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "common/fault_injection.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

class AdmissionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().Reset(); }

  // Advances FaultRegistry::Global().Now() by `ms` without sleeping. The
  // plan is left loaded (LoadPlan zeroes the accumulated skew); nothing
  // else fires the clock.tick point, and TearDown resets the registry.
  static void AdvanceClockMs(int ms) {
    ASSERT_TRUE(FaultRegistry::Global()
                    .LoadPlan("clock.tick=latency:" + std::to_string(ms))
                    .ok());
    FaultRegistry::Global().OnPoint("clock.tick").IgnoreError();
  }

  static std::chrono::steady_clock::time_point Now() {
    return FaultRegistry::Global().Now();
  }
};

// --- Token bucket -----------------------------------------------------------

TEST_F(AdmissionTest, TokenBucketRefusesBurstsAndRefillsOnTheVirtualClock) {
  AdmissionOptions options;
  options.rate_limit_per_sec = 10.0;
  options.rate_burst = 2.0;
  AdmissionController gate(options);

  EXPECT_TRUE(gate.Admit(ClientOp::kNext, "c1", Now()).admitted());
  EXPECT_TRUE(gate.Admit(ClientOp::kNext, "c1", Now()).admitted());
  AdmissionVerdict refused = gate.Admit(ClientOp::kNext, "c1", Now());
  ASSERT_FALSE(refused.admitted());
  EXPECT_EQ(refused.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(refused.code, error_code::kRateLimited);
  // The hint is the bucket deficit: one token at 10/s is at most 100ms.
  EXPECT_GE(refused.retry_after_ms, 1);
  EXPECT_LE(refused.retry_after_ms, 100);

  // Buckets are per client id; a refusal for c1 says nothing about c2.
  EXPECT_TRUE(gate.Admit(ClientOp::kNext, "c2", Now()).admitted());
  // close is exempt: a throttled client must always be able to release
  // its session.
  EXPECT_TRUE(gate.Admit(ClientOp::kClose, "c1", Now()).admitted());

  // One second of virtual time refills past the burst cap.
  AdvanceClockMs(1000);
  EXPECT_TRUE(gate.Admit(ClientOp::kNext, "c1", Now()).admitted());
  EXPECT_TRUE(gate.Admit(ClientOp::kNext, "c1", Now()).admitted());
  EXPECT_FALSE(gate.Admit(ClientOp::kNext, "c1", Now()).admitted());

  const AdmissionStats stats = gate.stats();
  EXPECT_EQ(stats.rate_limited, 2);
  EXPECT_EQ(stats.admitted, 6);
}

// --- Queue deadline ---------------------------------------------------------

TEST_F(AdmissionTest, QueueDeadlineShedsStaleWork) {
  AdmissionOptions options;
  options.queue_deadline_ms = 50.0;
  options.retry_after_ms = 123;
  AdmissionController gate(options);

  const auto enqueued = Now();
  EXPECT_TRUE(gate.Admit(ClientOp::kNext, "c", enqueued).admitted());

  // The line sat in the reactor queue for a virtual minute: by the time
  // the worker picks it up the client has long since timed out, so the
  // step is shed rather than executed.
  AdvanceClockMs(60000);
  AdmissionVerdict shed = gate.Admit(ClientOp::kNext, "c", enqueued);
  ASSERT_FALSE(shed.admitted());
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.code, error_code::kOverloaded);
  EXPECT_EQ(shed.retry_after_ms, 123);

  // Freshly-enqueued work is unaffected.
  EXPECT_TRUE(gate.Admit(ClientOp::kNext, "c", Now()).admitted());
  EXPECT_EQ(gate.stats().deadline_shed, 1);
}

// --- Through the SessionManager --------------------------------------------

class AdmissionManagerTest : public AdmissionTest {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session(MakeHospitalSession(120, ErrorModel::kRandom,
                                               /*error_rate=*/0.1,
                                               /*seed=*/3,
                                               /*idk_rate=*/0.0));
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  static std::string OpenLine(const std::string& id) {
    ClientFrame open;
    open.op = ClientOp::kOpen;
    open.id = id;
    open.strategy = "FDQ-BMC";
    open.budget = 8.0;
    open.has_budget = true;
    return FormatClientFrame(open);
  }

  static std::string NextLine(const std::string& id) {
    ClientFrame frame;
    frame.op = ClientOp::kNext;
    frame.id = id;
    return FormatClientFrame(frame);
  }

  static ServerFrame One(const std::vector<std::string>& replies) {
    EXPECT_EQ(replies.size(), 1u);
    return ParseServerFrame(replies.at(0)).ValueOrDie();
  }

  static Session* session_;
};

Session* AdmissionManagerTest::session_ = nullptr;

TEST_F(AdmissionManagerTest, RefusalFramesCarryCodeAndRetryHint) {
  SessionManagerOptions options;
  options.admission.rate_limit_per_sec = 0.5;
  options.admission.rate_burst = 1.0;
  SessionManager manager(session_, options);

  ServerFrame q = One(manager.HandleLine(OpenLine("rl1")));
  ASSERT_EQ(q.type, ServerFrameType::kQuestion);

  // The bucket is spent: the next step is refused with the structured
  // form — slug + retry hint — the loadgen's backoff keys on.
  ServerFrame refused = One(manager.HandleLine(NextLine("rl1")));
  ASSERT_EQ(refused.type, ServerFrameType::kError);
  EXPECT_EQ(refused.code, static_cast<int>(StatusCode::kResourceExhausted));
  EXPECT_EQ(refused.error_code, error_code::kRateLimited);
  EXPECT_GE(refused.retry_after_ms, 1);

  // Operator probes bypass admission: ping and health always answer.
  EXPECT_EQ(One(manager.HandleLine("{\"op\":\"ping\"}")).type,
            ServerFrameType::kPong);
  ServerFrame health = One(manager.HandleLine("{\"op\":\"health\"}"));
  ASSERT_EQ(health.type, ServerFrameType::kHealth);
  EXPECT_EQ(health.health.active_sessions, 1);
  EXPECT_EQ(health.health.rate_limited, 1);
  EXPECT_EQ(health.health.opened, 1);
}

TEST_F(AdmissionManagerTest, StaleEnqueueTimestampIsShedBeforeExecution) {
  SessionManagerOptions options;
  options.admission.queue_deadline_ms = 100.0;
  options.admission.retry_after_ms = 250;
  SessionManager manager(session_, options);

  const auto stale = Now();
  AdvanceClockMs(60000);
  ServerFrame shed = One(manager.HandleLine(NextLine("qd1"), stale));
  ASSERT_EQ(shed.type, ServerFrameType::kError);
  EXPECT_EQ(shed.code, static_cast<int>(StatusCode::kUnavailable));
  EXPECT_EQ(shed.error_code, error_code::kOverloaded);
  EXPECT_EQ(shed.retry_after_ms, 250);
  EXPECT_EQ(manager.admission_stats().deadline_shed, 1);

  // A fresh timestamp reaches the manager proper (unknown session: a
  // not_found error, not an admission shed).
  ServerFrame fresh = One(manager.HandleLine(NextLine("qd1"), Now()));
  ASSERT_EQ(fresh.type, ServerFrameType::kError);
  EXPECT_EQ(fresh.error_code, "not_found");
}

}  // namespace
}  // namespace uguide
