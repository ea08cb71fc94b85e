#include "core/session.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "core/session_state.h"
#include "discovery/tane.h"
#include "oracle/simulated_expert.h"
#include "violations/violation_engine.h"

namespace uguide {

namespace {

// Pumps `machine` with `expert` until the strategy finishes. When
// `retrying` is non-null its per-question retry-cost delta and exhaustion
// increment ride along on each submission (resilient runs).
Result<SessionReport> DriveWithExpert(SessionStateMachine& machine,
                                      Expert& expert,
                                      RetryingExpert* retrying) {
  while (std::optional<SessionQuestion> question = machine.NextQuestion()) {
    AnswerSubmission submission;
    submission.answer = AskQuestion(expert, *question);
    if (retrying != nullptr) {
      submission.retry_cost = retrying->last_retry_cost();
      submission.exhausted = retrying->last_exhausted();
    }
    UGUIDE_RETURN_NOT_OK(machine.SubmitAnswer(submission));
  }
  return machine.Finish();
}

}  // namespace

Session::Session(Relation dirty, GroundTruth truth, FdSet true_fds,
                 CandidateSet candidates, SessionConfig config)
    : dirty_(std::move(dirty)),
      truth_(std::move(truth)),
      true_fds_(std::move(true_fds)),
      true_violations_(TrueViolationSet::Compute(dirty_, true_fds_)),
      candidates_(std::move(candidates)),
      config_(std::move(config)) {}

Result<Session> Session::Create(const Relation& clean, DirtyDataset dataset,
                                SessionConfig config) {
  if (!(clean.schema() == dataset.dirty.schema())) {
    return Status::InvalidArgument("clean/dirty schema mismatch");
  }
  // Sigma_TC: the FDs of the clean table, i.e., what the expert knows.
  TaneOptions tane;
  tane.max_error = 0.0;
  tane.max_lhs_size = config.candidate_options.max_lhs_size;
  tane.num_threads = config.candidate_options.num_threads;
  UGUIDE_ASSIGN_OR_RETURN(FdSet true_fds, DiscoverFds(clean, tane));

  UGUIDE_ASSIGN_OR_RETURN(
      CandidateSet candidates,
      GenerateCandidates(dataset.dirty, config.candidate_options));

  return Session(std::move(dataset.dirty), std::move(dataset.truth),
                 std::move(true_fds), std::move(candidates),
                 std::move(config));
}

Session Session::Rebase(const Session& base, Relation mutated) {
  UGUIDE_CHECK(mutated.schema() == base.dirty_.schema())
      << "rebase onto a different schema";
  return Session(std::move(mutated), base.truth_, base.true_fds_,
                 base.candidates_, base.config_);
}

const ViolationArtifact& Session::artifact(ThreadPool* pool) const {
  return artifact_.Get([&] {
    auto engine = std::make_shared<ViolationEngine>(&dirty_);
    if (pool != nullptr) {
      return std::make_unique<const ViolationArtifact>(
          std::move(engine), candidates(), pool);
    }
    ThreadPool local(std::max(1, config_.candidate_options.num_threads));
    return std::make_unique<const ViolationArtifact>(std::move(engine),
                                                     candidates(), &local);
  });
}

SessionReport Session::Run(Strategy& strategy) const {
  return Run(strategy, config_.budget);
}

SessionReport Session::Run(Strategy& strategy, double budget) const {
  return Run(strategy, budget, SessionRunOptions{}).ValueOrDie();
}

Result<SessionReport> Session::Run(Strategy& strategy, double budget,
                                   const SessionRunOptions& options) const {
  // Build the in-process expert stack. Journaling and replay are *not*
  // part of it any more — they live inside SessionStateMachine, so a
  // served session (whose answers arrive over a socket) gets the same
  // durability and resume semantics as this local driver.
  const int votes = std::max(1, config_.expert_votes);
  SimulatedExpert expert(&true_violations_, &truth_,
                         dirty_.NumAttributes(), true_fds_,
                         config_.idk_rate, config_.expert_seed,
                         config_.wrong_rate);
  MajorityVoteExpert voting(&expert, votes);
  Expert* head = config_.expert_votes > 1 ? static_cast<Expert*>(&voting)
                                          : static_cast<Expert*>(&expert);

  // The resilience stack sits between voting and the machine so retries
  // are recorded once (as the final answer), not once per attempt.
  std::optional<FlakyExpert> flaky;
  std::optional<RetryingExpert> retrying;
  if (options.resilient) {
    flaky.emplace(head);
    retrying.emplace(&*flaky, options.retry, config_.cost,
                     dirty_.NumAttributes());
    head = &*retrying;
  }

  SessionStepOptions step;
  step.journal_path = options.journal_path;
  step.resume = options.resume;
  step.journal_fsync = options.journal_fsync;
  step.content_hash = options.content_hash;
  step.data_version = options.data_version;
  UGUIDE_ASSIGN_OR_RETURN(
      std::unique_ptr<SessionStateMachine> machine,
      SessionStateMachine::Start(*this, strategy, budget, std::move(step)));
  return DriveWithExpert(*machine, *head,
                         retrying.has_value() ? &*retrying : nullptr);
}

}  // namespace uguide
