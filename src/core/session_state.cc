#include "core/session_state.h"

#include <algorithm>
#include <utility>

#include "core/cell_strategies.h"
#include "core/fd_strategies.h"
#include "core/tuple_strategies.h"

namespace uguide {

namespace {

JournalRecord RecordOf(const SessionQuestion& question, Answer answer) {
  JournalRecord record;
  record.kind = question.kind;
  record.cell = question.cell;
  record.row = question.row;
  record.fd = question.fd;
  record.answer = answer;
  record.cost = question.nominal_cost;
  return record;
}

}  // namespace

Answer AskQuestion(Expert& expert, const SessionQuestion& question) {
  Question asked;
  asked.kind = question.kind;
  asked.cell = question.cell;
  asked.row = question.row;
  asked.fd = question.fd;
  return AskQuestion(expert, asked);
}

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
  machine->replay_ = std::move(replay);
  return machine;
}

SessionStateMachine::~SessionStateMachine() { Abandon(); }

void SessionStateMachine::AdvanceLocked() {
  if (run_ == nullptr) {
    const SessionConfig& config = session_.config();
    QuestionContext ctx;
    ctx.dirty = &session_.dirty();
    ctx.candidates = &session_.candidates();
    ctx.cost = config.cost;
    // Majority voting multiplies the expert effort per question; charge it
    // against the budget (same division the monolithic Run performed).
    ctx.budget = budget_ / std::max(1, config.expert_votes);
    ctx.exact_fds = &session_.exact_fds();
    ctx.true_fds = &session_.true_fds();
    ctx.true_violations = &session_.true_violations();
    ctx.injected = &session_.truth();
    ctx.artifact = artifact_;
    run_ = strategy_.Start(ctx);
  }
  std::optional<Question> next = run_->Next();
  if (!next.has_value()) {
    result_ = run_->Finish();
    run_.reset();
    done_ = true;
    return;
  }

  SessionQuestion question;
  question.kind = next->kind;
  question.cell = next->cell;
  question.row = next->row;
  question.fd = next->fd;
  question.nominal_cost = next->cost;
  question.index = next_index_++;
  if (!replay_abandoned_ && replay_pos_ < replay_.size()) {
    if (SameJournalQuestion(replay_[replay_pos_],
                            RecordOf(question, Answer::kIdk))) {
      // Still published: the driver must ask its own expert so any
      // stateful stack (RNG, retry counters) advances exactly as in the
      // original run, but SubmitAnswer serves the journal's answer.
      question.replayed = true;
    } else {
      replay_abandoned_ = true;
    }
  }
  pending_question_ = question;
  pending_delivered_ = false;
}

std::optional<SessionQuestion> SessionStateMachine::NextQuestion() {
  std::unique_lock<std::mutex> lock(mu_);
  if (abandoned_ || done_) return std::nullopt;
  if (!pending_question_.has_value()) AdvanceLocked();
  if (!pending_question_.has_value()) return std::nullopt;
  pending_delivered_ = true;
  return pending_question_;
}

Status SessionStateMachine::SubmitAnswer(const AnswerSubmission& submission) {
  std::unique_lock<std::mutex> lock(mu_);
  if (abandoned_) {
    return Status::FailedPrecondition("session abandoned");
  }
  // A question only counts as outstanding once NextQuestion handed it to
  // the driver — an answer can never race ahead of its question.
  if (!pending_question_.has_value() || !pending_delivered_) {
    return Status::FailedPrecondition("no question outstanding");
  }
  const SessionQuestion question = *std::move(pending_question_);
  pending_question_.reset();

  // The resilience surcharge accrues for replayed questions too: the
  // driver's retry stack really was asked (and really did back off).
  retry_cost_total_ += submission.retry_cost;
  if (submission.exhausted) ++exhausted_total_;

  Answer answer = submission.answer;
  if (question.replayed) {
    answer = replay_[replay_pos_].answer;
    ++replay_pos_;
    ++served_replays_;
  } else if (writer_.has_value() && write_status_.ok()) {
    // Durability precedes visibility: this append returns before the
    // strategy sees the answer, so no later question can exist whose
    // predecessor is not journaled.
    Status status = writer_->Append(RecordOf(question, answer));
    if (!status.ok()) write_status_ = std::move(status);
  }
  run_->Apply(answer);
  AdvanceLocked();
  return Status::OK();
}

Result<SessionReport> SessionStateMachine::Finish() {
  std::unique_lock<std::mutex> lock(mu_);
  if (finished_) {
    return Status::FailedPrecondition("session already finished");
  }
  if (abandoned_) {
    return Status::FailedPrecondition("session abandoned");
  }
  if (!done_ && !pending_question_.has_value()) {
    // The driver never pulled a first question: advance to the next
    // boundary.
    AdvanceLocked();
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
  if (abandoned_) return;
  abandoned_ = true;
  run_.reset();
  pending_question_.reset();
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
