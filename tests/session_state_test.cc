// The inverted step-wise session API: SessionStateMachine must be
// observationally identical to the monolithic driver for every strategy,
// idempotent on question re-delivery, resumable after a crash at any
// question k, and abandonable without hanging the pump thread.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/session.h"
#include "core/session_state.h"
#include "oracle/simulated_expert.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

void ExpectReportsEqual(const SessionReport& a, const SessionReport& b) {
  EXPECT_EQ(a.strategy_name, b.strategy_name);
  EXPECT_EQ(a.result.accepted_fds.fds(), b.result.accepted_fds.fds());
  EXPECT_EQ(a.result.cost_spent, b.result.cost_spent);
  EXPECT_EQ(a.result.questions_asked, b.result.questions_asked);
  EXPECT_EQ(a.retry_cost, b.retry_cost);
  EXPECT_EQ(a.questions_exhausted, b.questions_exhausted);
  EXPECT_EQ(a.metrics.detections, b.metrics.detections);
  EXPECT_EQ(a.metrics.true_positives, b.metrics.true_positives);
  EXPECT_EQ(a.metrics.false_positives, b.metrics.false_positives);
  EXPECT_EQ(a.metrics.false_negatives, b.metrics.false_negatives);
  EXPECT_EQ(a.metrics.injected_detected, b.metrics.injected_detected);
}

// A hand-rolled driver, deliberately *not* Session::Run's: the test
// re-implements the driver contract from the header comment alone, so a
// drift between the contract and Session::Run shows up as a mismatch.
Result<SessionReport> StepManually(const Session& session, Strategy& strategy,
                                   double budget,
                                   SessionStepOptions options = {}) {
  const SessionConfig& config = session.config();
  SimulatedExpert expert(&session.true_violations(), &session.truth(),
                         session.dirty().NumAttributes(), session.true_fds(),
                         config.idk_rate, config.expert_seed,
                         config.wrong_rate);
  UGUIDE_ASSIGN_OR_RETURN(
      std::unique_ptr<SessionStateMachine> machine,
      SessionStateMachine::Start(session, strategy, budget,
                                 std::move(options)));
  while (std::optional<SessionQuestion> q = machine->NextQuestion()) {
    AnswerSubmission submission;
    switch (q->kind) {
      case QuestionKind::kCell:
        submission.answer = expert.IsCellErroneous(q->cell);
        break;
      case QuestionKind::kTuple:
        submission.answer = expert.IsTupleClean(q->row);
        break;
      case QuestionKind::kFd:
        submission.answer = expert.IsFdValid(q->fd);
        break;
    }
    UGUIDE_RETURN_NOT_OK(machine->SubmitAnswer(submission));
  }
  return machine->Finish();
}

TEST(SessionStateMachineTest, StepApiMatchesMonolithicRunAllStrategies) {
  // idk_rate > 0 makes the expert's RNG state part of the contract: the
  // stepped run only matches if the machine surfaces exactly the same
  // question sequence.
  Session session = MakeHospitalSession(400, ErrorModel::kSystematic,
                                        /*error_rate=*/0.15, /*seed=*/5,
                                        /*idk_rate=*/0.1);
  const double budget = 40.0;
  for (const std::string& name : KnownStrategyNames()) {
    SCOPED_TRACE(name);
    auto baseline_strategy = MakeStrategyByName(name).ValueOrDie();
    SessionReport baseline = session.Run(*baseline_strategy, budget);

    auto stepped_strategy = MakeStrategyByName(name).ValueOrDie();
    Result<SessionReport> stepped =
        StepManually(session, *stepped_strategy, budget);
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    ExpectReportsEqual(*stepped, baseline);
  }
}

TEST(SessionStateMachineTest, StrategyRegistryKnowsAllEleven) {
  std::vector<std::string> names = KnownStrategyNames();
  EXPECT_EQ(names.size(), 11u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    Result<std::unique_ptr<Strategy>> strategy = MakeStrategyByName(name);
    ASSERT_TRUE(strategy.ok());
    EXPECT_NE(*strategy, nullptr);
  }
  Result<std::unique_ptr<Strategy>> unknown = MakeStrategyByName("CellQ-Bogus");
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(SessionStateMachineTest, NextQuestionIsIdempotentWhileOutstanding) {
  Session session = MakeHospitalSession(300);
  auto strategy = MakeStrategyByName("FDQ-Greedy").ValueOrDie();
  auto machine =
      SessionStateMachine::Start(session, *strategy, 20.0).ValueOrDie();

  std::optional<SessionQuestion> first = machine->NextQuestion();
  ASSERT_TRUE(first.has_value());
  // Re-delivery (the daemon's reconnect path): same question, same index.
  std::optional<SessionQuestion> again = machine->NextQuestion();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->index, first->index);
  EXPECT_EQ(again->kind, first->kind);
  EXPECT_EQ(again->nominal_cost, first->nominal_cost);

  ASSERT_TRUE(machine->SubmitAnswer({Answer::kIdk}).ok());
  machine->Abandon();
}

TEST(SessionStateMachineTest, SubmitWithoutOutstandingQuestionFails) {
  Session session = MakeHospitalSession(300);
  auto strategy = MakeStrategyByName("CellQ-Greedy").ValueOrDie();
  auto machine =
      SessionStateMachine::Start(session, *strategy, 20.0).ValueOrDie();
  EXPECT_FALSE(machine->SubmitAnswer({Answer::kYes}).ok());
  machine->Abandon();
}

TEST(SessionStateMachineTest, FinishWithOutstandingQuestionFails) {
  Session session = MakeHospitalSession(300);
  auto strategy = MakeStrategyByName("CellQ-SUMS").ValueOrDie();
  auto machine =
      SessionStateMachine::Start(session, *strategy, 20.0).ValueOrDie();
  ASSERT_TRUE(machine->NextQuestion().has_value());
  Result<SessionReport> report = machine->Finish();
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
      << report.status().ToString();
  machine->Abandon();
}

TEST(SessionStateMachineTest, AbandonMidRunDoesNotHangAndKeepsJournal) {
  Session session = MakeHospitalSession(300);
  const std::string path =
      ::testing::TempDir() + "/uguide_step_abandon.journal";
  std::remove(path.c_str());

  auto strategy = MakeStrategyByName("Sampling-Uniform").ValueOrDie();
  const double budget = 120.0;
  SessionReport baseline = session.Run(*strategy, budget);
  // The scenario needs a 4th question to leave outstanding.
  ASSERT_GT(baseline.result.questions_asked, 4);

  {
    SessionStepOptions options;
    options.journal_path = path;
    auto abandoned_strategy = MakeStrategyByName("Sampling-Uniform")
                                  .ValueOrDie();
    auto machine = SessionStateMachine::Start(session, *abandoned_strategy,
                                              budget, options)
                       .ValueOrDie();
    SimulatedExpert expert(&session.true_violations(), &session.truth(),
                           session.dirty().NumAttributes(),
                           session.true_fds(), 0.0,
                           session.config().expert_seed, 0.0);
    for (int k = 0; k < 3; ++k) {
      std::optional<SessionQuestion> q = machine->NextQuestion();
      ASSERT_TRUE(q.has_value());
      ASSERT_TRUE(
          machine->SubmitAnswer({expert.IsTupleClean(q->row)}).ok());
    }
    // Walk away with a question outstanding — the destructor (via
    // Abandon) must wind the strategy down without hanging.
    ASSERT_TRUE(machine->NextQuestion().has_value());
  }

  // The abandoned journal holds the three answered questions and resumes
  // into a report bit-identical to the uninterrupted run.
  auto resumed_strategy = MakeStrategyByName("Sampling-Uniform").ValueOrDie();
  SessionStepOptions resume;
  resume.journal_path = path;
  resume.resume = true;
  Result<SessionReport> resumed =
      StepManually(session, *resumed_strategy, budget, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->questions_replayed, 3);
  ExpectReportsEqual(*resumed, baseline);
}

// --- Crash-at-question-k resume through the step API ------------------------

// Forks a child that steps the session with a journal and crashes (exit
// 42) right after record k is durable, then resumes through the step API
// and requires a report bit-identical to the uninterrupted baseline.
void RunStepKillResume(const std::string& name, int k,
                       JournalFsyncMode fsync_mode) {
  SCOPED_TRACE(name + " crash@" + std::to_string(k) +
               (fsync_mode == JournalFsyncMode::kBatch ? " batch" : " every"));
  Session session = MakeHospitalSession(400, ErrorModel::kSystematic,
                                        /*error_rate=*/0.15, /*seed=*/5,
                                        /*idk_rate=*/0.1);
  auto strategy = MakeStrategyByName(name).ValueOrDie();
  const double budget = 40.0;
  SessionReport baseline = session.Run(*strategy, budget);

  const std::string path = ::testing::TempDir() + "/uguide_step_kill_" +
                           name + "_" + std::to_string(k) + ".journal";
  std::remove(path.c_str());

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    FaultRegistry::Global()
        .LoadPlan("session.record=crash@" + std::to_string(k))
        .IgnoreError();
    auto child_strategy = MakeStrategyByName(name).ValueOrDie();
    SessionStepOptions options;
    options.journal_path = path;
    options.journal_fsync = fsync_mode;
    Result<SessionReport> r =
        StepManually(session, *child_strategy, budget, options);
    std::_Exit(r.ok() ? 0 : 3);
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  const int exit_code = WEXITSTATUS(wait_status);
  ASSERT_TRUE(exit_code == FaultRegistry::kCrashExitCode || exit_code == 0)
      << "child exited with " << exit_code;

  auto resumed_strategy = MakeStrategyByName(name).ValueOrDie();
  SessionStepOptions resume;
  resume.journal_path = path;
  resume.resume = true;
  Result<SessionReport> resumed =
      StepManually(session, *resumed_strategy, budget, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  if (exit_code == FaultRegistry::kCrashExitCode &&
      fsync_mode == JournalFsyncMode::kEvery) {
    // kEvery: exactly k records were durable. kBatch may have fewer (the
    // tail batch is lost), which the resume simply re-asks.
    EXPECT_EQ(resumed->questions_replayed, k);
  }
  ExpectReportsEqual(*resumed, baseline);
}

TEST(StepKillResumeTest, FdStrategyResumesBitIdentical) {
  for (int k : {1, 4}) {
    RunStepKillResume("FDQ-BMC", k, JournalFsyncMode::kEvery);
  }
}

TEST(StepKillResumeTest, CellStrategyResumesBitIdentical) {
  for (int k : {1, 4}) {
    RunStepKillResume("CellQ-SUMS", k, JournalFsyncMode::kEvery);
  }
}

TEST(StepKillResumeTest, TupleStrategyResumesBitIdentical) {
  for (int k : {1, 4}) {
    RunStepKillResume("Sampling-Saturation", k, JournalFsyncMode::kEvery);
  }
}

TEST(StepKillResumeTest, BatchFsyncResumesBitIdentical) {
  // --journal-fsync=batch: a crash may lose trailing records but never
  // corrupts the journal, and the resume is still bit-identical.
  RunStepKillResume("FDQ-Greedy", 5, JournalFsyncMode::kBatch);
}

}  // namespace
}  // namespace uguide
