#ifndef UGUIDE_CORE_SESSION_STATE_H_
#define UGUIDE_CORE_SESSION_STATE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

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
  /// The cost the strategy charges for the question (Question::cost), which
  /// the journal records and the wire carries.
  double nominal_cost = 0.0;
};

/// Asks `expert` the question, as AskQuestion(Expert&, const Question&)
/// does. (Not named AskExpert: perfbench defines its own with this
/// signature, and argument-dependent lookup would make its calls
/// ambiguous.)
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

/// \brief A Session run as an explicit step API.
///
/// A served session needs the caller to *ask for* the next question, ship
/// it to a remote answerer, and submit the answer whenever it arrives.
/// Every strategy runs as steps (StrategyRun), so the machine drives them
/// directly:
///
///   auto machine = SessionStateMachine::Start(session, strategy, budget);
///   while (auto q = machine->NextQuestion()) {
///     machine->SubmitAnswer({AskSomeone(*q)});
///   }
///   SessionReport report = machine->Finish().ValueOrDie();
///
/// Between questions a session is plain data, and every step runs inline
/// on whatever thread calls NextQuestion / SubmitAnswer, which is what
/// lets the serving reactor execute session steps as ordinary pool tasks.
/// The strategy's set-up and first selection run in the first
/// NextQuestion; each SubmitAnswer journals the answer, applies it and
/// selects the next question before it returns.
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
/// carries the run's state between them. Distinct machines are fully
/// independent and may share a ThreadPool and one ViolationArtifact.
class SessionStateMachine {
 public:
  /// Validates options (loading and checking the journal on resume) and
  /// opens the journal. `session`, `strategy` and any shared resources in
  /// `options` must outlive the machine.
  static Result<std::unique_ptr<SessionStateMachine>> Start(
      const Session& session, Strategy& strategy, double budget,
      SessionStepOptions options = {});

  /// Abandons the run if it is still in flight (see Abandon).
  ~SessionStateMachine();

  SessionStateMachine(const SessionStateMachine&) = delete;
  SessionStateMachine& operator=(const SessionStateMachine&) = delete;

  /// Advances the strategy to its next question (running it inline on the
  /// calling thread), or returns nullopt once the strategy has finished or
  /// the machine was abandoned. Idempotent while a question is outstanding
  /// (re-delivers the same question — the serving daemon resends after a
  /// reconnect).
  std::optional<SessionQuestion> NextQuestion();

  /// Delivers the answer for the outstanding question and advances the
  /// strategy inline until it selects the next question (retrievable with
  /// NextQuestion) or completes. Fails if no question is outstanding. The
  /// answered record is durably journaled before the strategy observes the
  /// answer, so by the time the *next* question is visible, the previous
  /// answer has been persisted.
  Status SubmitAnswer(const AnswerSubmission& submission);

  /// Evaluates detections and returns the report. Fails if a question is
  /// still outstanding, if the machine was abandoned, or if a journal
  /// write failed during the run.
  Result<SessionReport> Finish();

  /// Cancels an in-flight run: the strategy's run is dropped without
  /// asking or answering anything more, the journal is closed, and the
  /// machine becomes terminal. The journal is preserved, so an abandoned
  /// served session is resumable with `resume = true`. Idempotent.
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
  SessionStateMachine(const Session& session, Strategy& strategy,
                      double budget, SessionStepOptions options);

  /// Starts the strategy's run on first use, then asks it for its next
  /// question and publishes it, matched against the replay tail; or
  /// finishes the run. Caller holds mu_.
  void AdvanceLocked();

  const Session& session_;
  Strategy& strategy_;
  const double budget_;
  const SessionStepOptions options_;

  /// The artifact the run reads: options_.artifact or the session's own.
  const ViolationArtifact* artifact_ = nullptr;

  std::optional<JournalWriter> writer_;

  // mu_ serializes the driver API and carries the run between threads
  // (every step happens under it, so step N+1 sees step N's writes even
  // when a different pool thread runs it).
  mutable std::mutex mu_;
  std::unique_ptr<StrategyRun> run_;  // null until the first step
  StrategyResult result_;             // the run's Finish, once done_
  bool done_ = false;
  bool abandoned_ = false;
  bool finished_ = false;  // Finish already consumed the run

  // The journal being resumed: a question matching replay_[replay_pos_]
  // is answered from it. The first mismatch (a different build or inputs)
  // abandons the replay, and the run continues live.
  std::vector<JournalRecord> replay_;
  size_t replay_pos_ = 0;
  bool replay_abandoned_ = false;

  // The outstanding question, published by AdvanceLocked.
  std::optional<SessionQuestion> pending_question_;
  /// NextQuestion returned the pending question to the driver; only then
  /// may SubmitAnswer accept an answer for it.
  bool pending_delivered_ = false;
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
