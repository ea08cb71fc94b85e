#include "core/session_state.h"

#include <algorithm>
#include <utility>

#include "core/cell_strategies.h"
#include "core/fd_strategies.h"
#include "core/tuple_strategies.h"

namespace uguide {

/// \brief The Expert the strategy talks to inside the machine.
///
/// Lives on the strategy fiber. Each question becomes a JournalRecord, is
/// matched against the replay tail if one is loaded, published to the
/// driver, and parks the fiber until the driver submits an answer.
/// Replayed questions are *still published* — the driver must ask its own
/// expert so any stateful stack (RNG, retry counters) advances exactly as
/// in the original run — but the submitted answer is discarded in favor of
/// the journal's.
class SessionStateMachine::ChannelExpert : public Expert {
 public:
  ChannelExpert(SessionStateMachine* machine, std::vector<JournalRecord> replay,
                const CostModel& cost, int num_attributes)
      : machine_(machine),
        replay_(std::move(replay)),
        cost_(cost),
        num_attributes_(num_attributes) {}

  Answer IsCellErroneous(const Cell& cell) override {
    JournalRecord record;
    record.kind = QuestionKind::kCell;
    record.cell = cell;
    record.cost = cost_.CellCost();
    return Ask(std::move(record));
  }

  Answer IsTupleClean(TupleId row) override {
    JournalRecord record;
    record.kind = QuestionKind::kTuple;
    record.row = row;
    record.cost = cost_.TupleCost(num_attributes_);
    return Ask(std::move(record));
  }

  Answer IsFdValid(const Fd& fd) override {
    JournalRecord record;
    record.kind = QuestionKind::kFd;
    record.fd = fd;
    record.cost = cost_.FdCost(fd, 0);
    return Ask(std::move(record));
  }

 private:
  Answer Ask(JournalRecord record) {
    SessionStateMachine* m = machine_;
    // An abandoned machine answers kIdk without publishing: every strategy
    // charges positive cost per question, so the run drains its budget and
    // winds down without another party in the loop. No yield — the
    // abandoning thread runs the wind-down to completion.
    if (m->abandoned_) return Answer::kIdk;

    bool replayed = false;
    if (!replay_abandoned_ && replay_pos_ < replay_.size()) {
      if (SameJournalQuestion(replay_[replay_pos_], record)) {
        replayed = true;
      } else {
        // The strategy diverged from the journal (different build or
        // inputs). Replay is no longer trustworthy; continue live.
        ++mismatches_;
        replay_abandoned_ = true;
      }
    }

    // Publish the question and park the fiber. The machine's mutex is held
    // by the resuming thread, and every mutation below runs on whichever
    // thread resumed us, so the driver-visible state is always guarded.
    SessionQuestion question;
    question.kind = record.kind;
    question.cell = record.cell;
    question.row = record.row;
    question.fd = record.fd;
    question.index = m->next_index_++;
    question.replayed = replayed;
    question.nominal_cost = record.cost;
    m->pending_question_ = question;
    m->pending_answered_ = false;
    m->pending_delivered_ = false;
    Fiber::Yield();

    m->pending_question_.reset();
    if (!m->pending_answered_) {
      // Abandoned while parked: the submission never arrived.
      return Answer::kIdk;
    }
    const AnswerSubmission submission = m->submission_;
    m->pending_answered_ = false;

    // The resilience surcharge accrues for replayed questions too: the
    // driver's retry stack really was asked (and really did back off).
    m->retry_cost_total_ += submission.retry_cost;
    if (submission.exhausted) ++m->exhausted_total_;

    if (replayed) {
      const Answer answer = replay_[replay_pos_].answer;
      ++replay_pos_;
      ++m->served_replays_;
      return answer;
    }

    record.answer = submission.answer;
    if (m->writer_.has_value() && m->write_status_.ok()) {
      // Durability precedes visibility: this append returns before the
      // strategy sees the answer, so no later question can exist whose
      // predecessor is not journaled.
      Status status = m->writer_->Append(record);
      if (!status.ok()) m->write_status_ = std::move(status);
    }
    return submission.answer;
  }

  SessionStateMachine* machine_;
  std::vector<JournalRecord> replay_;
  size_t replay_pos_ = 0;
  bool replay_abandoned_ = false;
  int mismatches_ = 0;
  CostModel cost_;
  int num_attributes_;
};

SessionStateMachine::SessionStateMachine(const Session& session,
                                         Strategy& strategy, double budget,
                                         SessionStepOptions options)
    : session_(session),
      strategy_(strategy),
      budget_(budget),
      options_(std::move(options)),
      artifact_(options_.artifact != nullptr
                    ? options_.artifact
                    : &session_.artifact(options_.pool)) {}

Result<std::unique_ptr<SessionStateMachine>> SessionStateMachine::Start(
    const Session& session, Strategy& strategy, double budget,
    SessionStepOptions options) {
  const SessionConfig& config = session.config();
  const int votes = std::max(1, config.expert_votes);

  JournalHeader header;
  header.strategy_name = std::string(strategy.name());
  header.budget = budget;
  header.expert_seed = config.expert_seed;
  header.expert_votes = votes;
  header.idk_rate = config.idk_rate;
  header.wrong_rate = config.wrong_rate;
  header.content_hash = options.content_hash;
  header.data_version = options.data_version;

  std::vector<JournalRecord> replay;
  JournalWriterOptions writer_options;
  writer_options.fsync_mode = options.journal_fsync;
  if (options.resume) {
    if (options.journal_path.empty()) {
      return Status::InvalidArgument("resume requires a journal path");
    }
    // A DataLoss here (checksum failure) propagates unchanged: the
    // caller must quarantine the file, not retry the resume.
    UGUIDE_ASSIGN_OR_RETURN(LoadedJournal journal,
                            LoadJournal(options.journal_path));
    Status header_ok = ValidateJournalHeader(header, journal.header);
    if (!header_ok.ok()) {
      return Status::InvalidArgument("journal " + options.journal_path + ": " +
                                     header_ok.message());
    }
    replay = std::move(journal.records);
    writer_options.resume = true;
    writer_options.resume_offset = journal.resume_offset;
  }

  std::optional<JournalWriter> writer;
  if (!options.journal_path.empty()) {
    UGUIDE_ASSIGN_OR_RETURN(
        writer, JournalWriter::Open(options.journal_path, header,
                                    writer_options));
  }

  std::unique_ptr<SessionStateMachine> machine(
      new SessionStateMachine(session, strategy, budget, std::move(options)));
  machine->writer_ = std::move(writer);
  machine->channel_ = std::make_unique<ChannelExpert>(
      machine.get(), std::move(replay), config.cost,
      session.dirty().NumAttributes());
  machine->fiber_ = std::make_unique<Fiber>(
      [m = machine.get()] { m->PumpMain(); });
  return machine;
}

SessionStateMachine::~SessionStateMachine() { Abandon(); }

void SessionStateMachine::PumpMain() {
  const SessionConfig& config = session_.config();
  QuestionContext ctx;
  ctx.dirty = &session_.dirty();
  ctx.candidates = &session_.candidates();
  ctx.expert = channel_.get();
  ctx.cost = config.cost;
  // Majority voting multiplies the expert effort per question; charge it
  // against the budget (same division the monolithic Run performed).
  ctx.budget = budget_ / std::max(1, config.expert_votes);
  ctx.exact_fds = &session_.exact_fds();
  ctx.true_fds = &session_.true_fds();
  ctx.true_violations = &session_.true_violations();
  ctx.injected = &session_.truth();
  ctx.artifact = artifact_;
  ctx.pool = options_.pool;

  result_ = strategy_.Run(ctx);
  done_ = true;
}

void SessionStateMachine::StepLocked() {
  // The fiber runs the strategy inline on this thread until the channel
  // expert publishes a question (and yields) or the strategy returns.
  if (!done_ && !fiber_->finished()) fiber_->Resume();
}

std::optional<SessionQuestion> SessionStateMachine::NextQuestion() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!done_ && !abandoned_ && !pending_question_.has_value()) {
    StepLocked();
  }
  if (pending_question_.has_value() && !pending_answered_) {
    pending_delivered_ = true;
    return pending_question_;
  }
  return std::nullopt;
}

Status SessionStateMachine::SubmitAnswer(const AnswerSubmission& submission) {
  std::unique_lock<std::mutex> lock(mu_);
  if (abandoned_) {
    return Status::FailedPrecondition("session abandoned");
  }
  // A question only counts as outstanding once NextQuestion handed it to
  // the driver — an answer can never race ahead of its question.
  if (!pending_question_.has_value() || pending_answered_ ||
      !pending_delivered_) {
    return Status::FailedPrecondition("no question outstanding");
  }
  submission_ = submission;
  pending_answered_ = true;
  // Consume the answer now: the fiber journals it and either publishes the
  // next question or finishes, all before SubmitAnswer returns — the same
  // durability ordering the pump-thread machine guaranteed.
  StepLocked();
  return Status::OK();
}

Result<SessionReport> SessionStateMachine::Finish() {
  std::unique_lock<std::mutex> lock(mu_);
  if (finished_) {
    return Status::FailedPrecondition("session already finished");
  }
  if (!done_ && !abandoned_ && !pending_question_.has_value()) {
    // The driver never pulled a first question (or the machine is mid
    // stream with nothing outstanding): advance to the next boundary.
    StepLocked();
  }
  if (!done_) {
    return Status::FailedPrecondition(
        "a question is outstanding; answer it or Abandon first");
  }
  finished_ = true;

  SessionReport report;
  report.strategy_name = std::string(strategy_.name());
  report.result = result_;
  // Retries are charged after the fact: the strategy budgets with nominal
  // costs, the report carries the true (surcharged) spend.
  report.retry_cost = retry_cost_total_;
  report.result.cost_spent += retry_cost_total_;
  report.questions_exhausted = exhausted_total_;
  report.questions_replayed = served_replays_;
  report.data_version = options_.data_version;
  if (!write_status_.ok()) return write_status_;
  if (writer_.has_value()) {
    // The durable end marker: recovery classifies this journal as finished
    // (GC-eligible) instead of resumable.
    UGUIDE_RETURN_NOT_OK(writer_->AppendEnd(report.result.questions_asked,
                                            report.result.cost_spent));
    UGUIDE_RETURN_NOT_OK(writer_->Close());
    writer_.reset();
  }
  report.metrics =
      EvaluateDetections(artifact_->engine(), report.result.accepted_fds,
                         session_.true_violations(), &session_.truth());
  return report;
}

void SessionStateMachine::Abandon() {
  std::unique_lock<std::mutex> lock(mu_);
  if (abandoned_ && done_) return;
  abandoned_ = true;
  // Wind the strategy down on this thread: the parked question (if any)
  // and every later one are answered kIdk by the channel expert.
  while (!done_ && fiber_ != nullptr && !fiber_->finished()) {
    fiber_->Resume();
  }
  if (writer_.has_value()) {
    // Best effort: Abandon has no failure channel, and the journal is
    // already durable up to the last acknowledged answer.
    writer_->Close().IgnoreError();
    writer_.reset();
  }
}

bool SessionStateMachine::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

int SessionStateMachine::questions_replayed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_replays_;
}

Status SessionStateMachine::write_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_status_;
}

Result<std::unique_ptr<Strategy>> MakeStrategyByName(const std::string& name) {
  if (name == "CellQ-HS") return MakeCellQHittingSet();
  if (name == "CellQ-Greedy") return MakeCellQGreedy();
  if (name == "CellQ-SUMS") return MakeCellQSums();
  if (name == "CellQ-Oracle") return MakeCellQOracle();
  if (name == "FDQ-BMC") return MakeFdQBudgetedMaxCoverage();
  if (name == "FDQ-Greedy") return MakeFdQGreedy();
  if (name == "FDQ-Oracle") return MakeFdQOracle();
  if (name == "Sampling-Uniform") return MakeTupleSamplingUniform();
  if (name == "Sampling-Violation") return MakeTupleSamplingViolationWeighting();
  if (name == "Sampling-Saturation") return MakeTupleSamplingSaturationSets();
  if (name == "TupleQ-Oracle") return MakeTupleQOracle();
  return Status::NotFound("unknown strategy: " + name);
}

std::vector<std::string> KnownStrategyNames() {
  return {"CellQ-HS",         "CellQ-Greedy",      "CellQ-SUMS",
          "CellQ-Oracle",     "FDQ-BMC",           "FDQ-Greedy",
          "FDQ-Oracle",       "Sampling-Uniform",  "Sampling-Violation",
          "Sampling-Saturation", "TupleQ-Oracle"};
}

}  // namespace uguide
