#ifndef UGUIDE_CORE_SESSION_STATE_H_
#define UGUIDE_CORE_SESSION_STATE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/fiber.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "core/strategy.h"

namespace uguide {

/// \brief One question surfaced by a stepped session.
///
/// The payload mirrors JournalRecord's question half; `index` is the
/// 0-based ordinal of the question within the session and doubles as the
/// wire sequence number of the serving protocol.
struct SessionQuestion {
  QuestionKind kind = QuestionKind::kCell;
  Cell cell;        ///< kCell: the cell asked about.
  TupleId row = 0;  ///< kTuple: the tuple asked about.
  Fd fd;            ///< kFd: the FD asked about.
  int index = 0;
  /// The answer to this question is already in the journal being resumed:
  /// the machine discards whatever the driver submits (after using the
  /// submission to keep the driver's own expert state advancing) and
  /// serves the recorded answer to the strategy instead.
  bool replayed = false;
  /// The question's nominal cost under the session's cost model.
  double nominal_cost = 0.0;
};

/// Asks `expert` the question: IsCellErroneous, IsTupleClean or IsFdValid
/// by `question.kind`. (Not named AskExpert: perfbench defines its own
/// with this signature, and argument-dependent lookup would make its
/// calls ambiguous.)
Answer AskQuestion(Expert& expert, const SessionQuestion& question);

/// \brief What a driver hands back for one question.
///
/// `retry_cost` and `exhausted` carry the resilience surcharge of answering
/// this one question (RetryingExpert's per-question delta); the state
/// machine accumulates them into the report so budget gating stays
/// fault-invariant exactly as in the monolithic Session::Run.
struct AnswerSubmission {
  Answer answer = Answer::kIdk;
  double retry_cost = 0.0;
  bool exhausted = false;
};

/// Per-machine options: journaling, resume, and resource sharing.
struct SessionStepOptions {
  /// When non-empty, every live-answered question is durably appended here
  /// before the strategy sees the answer.
  std::string journal_path;
  /// Replay `journal_path` before surfacing live questions.
  bool resume = false;
  /// Durability policy of the journal writer (`--journal-fsync`).
  JournalFsyncMode journal_fsync = JournalFsyncMode::kEvery;
  /// Worker pool for the first build of the session's artifact (see
  /// Session::artifact). Null = the session's own fallback. A serving
  /// daemon passes its process pool so N concurrent sessions share one set
  /// of workers.
  ThreadPool* pool = nullptr;
  /// The violation artifact the run reads (a live epoch's, or any artifact
  /// built over the session's relation and candidates). Null = the
  /// session's own, Session::artifact(). Either way the run builds
  /// nothing the artifact already holds: its only violation state is a
  /// GraphView for cell strategies.
  const ViolationArtifact* artifact = nullptr;
  /// Identity of the data this run executes against, pinned into the
  /// journal header (`dhash=`/`dver=`) and stamped onto the report so
  /// every answer is attributable to one live-data epoch. Zero for
  /// immutable-dataset runs (the pre-live behavior, byte-identical).
  uint64_t content_hash = 0;
  uint64_t data_version = 0;
};

/// \brief A Session run inverted into an explicit step API.
///
/// The strategies of §5–§6 are written as blocking loops that *call* an
/// Expert; a served session needs the opposite shape — the caller *asks
/// for* the next question, ships it to a remote answerer, and submits the
/// answer whenever it arrives. SessionStateMachine inverts the control
/// flow without rewriting any strategy: the strategy runs on a Fiber
/// against a channel-backed Expert, and each expert call parks the fiber
/// until the driver moves the machine forward.
///
///   auto machine = SessionStateMachine::Start(session, strategy, budget);
///   while (auto q = machine->NextQuestion()) {
///     machine->SubmitAnswer({AskSomeone(*q)});
///   }
///   SessionReport report = machine->Finish().ValueOrDie();
///
/// There is no pump thread: a parked session is a parked stack, and the
/// strategy advances *inline* on whatever thread calls NextQuestion /
/// SubmitAnswer / Abandon. That is what lets the serving reactor execute
/// session steps as ordinary pool tasks — 10k concurrent sessions are 10k
/// fibers, not 10k threads — while the blocking CLI driver simply runs the
/// strategy on its own thread between questions.
///
/// Journaling, crash-safe resume, and the retry-surcharge accounting live
/// *inside* the machine (not in the driver), so a served session that
/// crashes and resumes is bit-identical to an uninterrupted one under the
/// same driver — the same contract the monolithic Session::Run had, now
/// independent of where the answers come from. Session::Run itself is a
/// thin driver over this class.
///
/// Thread safety: NextQuestion/SubmitAnswer/Finish must be called from one
/// driver thread at a time (the serving daemon serializes per session) but
/// successive calls may come from different threads — the machine's mutex
/// hands the fiber over with the necessary happens-before edge. Distinct
/// machines are fully independent and may share a ThreadPool and one
/// ViolationArtifact.
class SessionStateMachine {
 public:
  /// Validates options (loading and checking the journal on resume) and
  /// readies the strategy fiber. `session`, `strategy` and any shared
  /// resources in `options` must outlive the machine.
  static Result<std::unique_ptr<SessionStateMachine>> Start(
      const Session& session, Strategy& strategy, double budget,
      SessionStepOptions options = {});

  /// Abandons the run if it is still in flight (see Abandon).
  ~SessionStateMachine();

  SessionStateMachine(const SessionStateMachine&) = delete;
  SessionStateMachine& operator=(const SessionStateMachine&) = delete;

  /// Advances the strategy to its next question (running it inline on the
  /// calling thread), or returns nullopt once the strategy has finished.
  /// Idempotent while a question is outstanding (re-delivers the same
  /// question — the serving daemon resends after a reconnect).
  std::optional<SessionQuestion> NextQuestion();

  /// Delivers the answer for the outstanding question and advances the
  /// strategy inline until it surfaces the next question (retrievable with
  /// NextQuestion) or completes. Fails if no question is outstanding. The
  /// answered record is durably journaled before the strategy observes the
  /// answer, so by the time the *next* question is visible, the previous
  /// answer has been persisted.
  Status SubmitAnswer(const AnswerSubmission& submission);

  /// Evaluates detections and returns the report. Fails if a question is
  /// still outstanding (answer or Abandon first) or if a journal write
  /// failed during the run.
  Result<SessionReport> Finish();

  /// Cancels an in-flight run: the outstanding question (if any) and every
  /// later one are answered kIdk internally until the strategy winds down,
  /// the journal is synced and closed, and the machine becomes terminal.
  /// The journal is preserved, so an abandoned served session is resumable
  /// with `resume = true`. Idempotent.
  void Abandon();

  /// True once the strategy has returned (Finish will not run any steps).
  bool done() const;

  /// Questions served from the journal so far (resume bookkeeping).
  int questions_replayed() const;

  /// The sticky first journal write/fsync failure, if any. Once non-OK,
  /// answers are no longer durable: the serving layer must stop advancing
  /// the session outward (structured `storage_failed` refusal) even though
  /// the in-memory machine itself is still consistent and answerable.
  Status write_status() const;

 private:
  class ChannelExpert;

  SessionStateMachine(const Session& session, Strategy& strategy,
                      double budget, SessionStepOptions options);

  void PumpMain();
  /// Runs the fiber until it publishes a question or the strategy returns.
  /// Caller holds mu_.
  void StepLocked();

  const Session& session_;
  Strategy& strategy_;
  const double budget_;
  const SessionStepOptions options_;

  /// The artifact the run reads: options_.artifact or the session's own.
  const ViolationArtifact* artifact_ = nullptr;

  std::unique_ptr<ChannelExpert> channel_;
  std::optional<JournalWriter> writer_;

  std::unique_ptr<Fiber> fiber_;
  StrategyResult result_;  // written by the fiber before done_

  // mu_ serializes the driver API and carries the fiber between threads
  // (every Resume happens under it, so step N+1 sees step N's writes even
  // when a different pool thread runs it).
  mutable std::mutex mu_;
  bool done_ = false;
  bool abandoned_ = false;
  bool finished_ = false;  // Finish already consumed the run

  // The single-question channel between the fiber and the driver.
  std::optional<SessionQuestion> pending_question_;
  bool pending_answered_ = false;
  /// NextQuestion returned the pending question to the driver; only then
  /// may SubmitAnswer accept an answer for it.
  bool pending_delivered_ = false;
  AnswerSubmission submission_;
  int next_index_ = 0;

  // Report accounting, accumulated as submissions arrive (all under mu_).
  double retry_cost_total_ = 0.0;
  int exhausted_total_ = 0;
  int served_replays_ = 0;
  Status write_status_ = Status::OK();
};

/// \brief Instantiates one of the 11 strategies by its reporting name
/// (e.g. "FDQ-BMC", "CellQ-SUMS", "Sampling-Uniform"); the registry the
/// serving daemon and load generator resolve wire requests against.
/// Returns NotFound for unknown names.
Result<std::unique_ptr<Strategy>> MakeStrategyByName(const std::string& name);

/// The names MakeStrategyByName accepts, in a stable order.
std::vector<std::string> KnownStrategyNames();

}  // namespace uguide

#endif  // UGUIDE_CORE_SESSION_STATE_H_
