#include "server/session_manager.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <ctime>
#include <utility>

#include "common/fault_injection.h"
#include "core/session_journal.h"

namespace uguide {

namespace {

/// Session ids become journal file names; confine them to a charset that
/// cannot traverse paths or hide control bytes.
bool ValidSessionId(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  if (id.front() == '.') return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

bool EndsWith(const std::string& name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

SessionManager::SessionManager(const Session* session,
                               SessionManagerOptions options)
    : session_(session),
      options_(std::move(options)),
      admission_(options_.admission, options_.memory_budget) {
  UGUIDE_CHECK(options_.engine == nullptr ||
               options_.engine == &session_->artifact().engine())
      << "the manager serves the session's own violation engine";
  UGUIDE_CHECK(options_.graph == nullptr ||
               options_.graph == &session_->artifact().graph())
      << "the manager serves the session's own violation graph";
  RecoverJournals();
}

void SessionManager::RecoverJournals() {
  if (options_.journal_dir.empty()) return;
  DIR* dir = ::opendir(options_.journal_dir.c_str());
  if (dir == nullptr) return;  // nothing durable yet: a fresh deployment
  std::vector<std::string> journals;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (EndsWith(name, ".journal.quarantined")) {
      // A quarantine backlog from earlier incarnations: still surfaced —
      // every damaged session stays visible until an operator triages it.
      ++recovery_.quarantined;
    } else if (EndsWith(name, ".journal")) {
      journals.push_back(name);
    }
  }
  ::closedir(dir);

  bool unlinked = false;
  const std::time_t now = std::time(nullptr);
  for (const std::string& name : journals) {
    const std::string path = options_.journal_dir + "/" + name;
    Result<LoadedJournal> loaded = LoadJournal(path);
    if (!loaded.ok()) {
      // Checksum failure, torn header, unsupported version (a retired
      // version-1 journal), unreadable: no resume can ever succeed, so
      // move the evidence aside where it cannot be mistaken for live
      // state. (kDataLoss and structurally-unreadable files get the same
      // treatment; they differ only in the error text.)
      if (QuarantineJournal(path).ok()) ++recovery_.quarantined;
      continue;
    }
    if (!loaded->finished) {
      ++recovery_.resumable;
      continue;
    }
    if (options_.journal_retain_s > 0.0) {
      struct stat st;
      if (::stat(path.c_str(), &st) == 0 &&
          static_cast<double>(now - st.st_mtime) > options_.journal_retain_s &&
          ::unlink(path.c_str()) == 0) {
        ++recovery_.gced;
        unlinked = true;
        continue;
      }
    }
    ++recovery_.finished;
  }
  // One directory fsync covers every unlink: recovery itself must not be
  // undone by a crash right after it runs.
  if (unlinked) FsyncDir(options_.journal_dir).IgnoreError();
}

void SessionManager::SetHealthAugmenter(
    std::function<void(HealthInfo*)> augmenter) {
  std::lock_guard<std::mutex> lock(mu_);
  health_augmenter_ = std::move(augmenter);
}

SessionManager::~SessionManager() { BeginDrain(); }

std::string SessionManager::JournalPathFor(const std::string& id) const {
  if (options_.journal_dir.empty()) return std::string();
  return options_.journal_dir + "/" + id + ".journal";
}

std::shared_ptr<SessionManager::Served> SessionManager::Find(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

void SessionManager::Erase(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(id);
}

std::vector<std::string> SessionManager::HandleLine(std::string_view line) {
  return HandleLine(line, FaultRegistry::Global().Now());
}

std::vector<std::string> SessionManager::HandleLine(
    std::string_view line, std::chrono::steady_clock::time_point enqueued) {
  Result<ClientFrame> parsed = ParseClientFrame(line);
  if (!parsed.ok()) {
    return {FormatErrorFrame("", parsed.status(), error_code::kBadFrame, -1)};
  }
  const ClientFrame& frame = *parsed;

  // Ping and health bypass admission: both are the probes an operator (or
  // a backing-off client) uses to see whether the daemon is alive and why
  // it is refusing — shedding them would blind exactly the tooling that
  // responds to overload.
  if (frame.op == ClientOp::kPing) return {FormatPongFrame()};
  if (frame.op == ClientOp::kHealth) return HandleHealth();

  const AdmissionVerdict verdict =
      admission_.Admit(frame.op, frame.id, enqueued);
  if (!verdict.admitted()) {
    return {FormatErrorFrame(frame.id, verdict.status, verdict.code,
                             verdict.retry_after_ms)};
  }

  switch (frame.op) {
    case ClientOp::kOpen:
      return HandleOpen(frame);
    case ClientOp::kNext:
    case ClientOp::kAnswer:
      return HandleStep(frame);
    case ClientOp::kClose:
      return HandleClose(frame);
    case ClientOp::kMutate:
      return HandleMutate(frame);
    case ClientOp::kPing:
    case ClientOp::kHealth:
      break;  // handled above
  }
  return {FormatErrorFrame(frame.id, Status::Internal("unreachable"))};
}

std::vector<std::string> SessionManager::HandleHealth() {
  HealthInfo health;
  health.brownout = static_cast<int>(admission_.brownout());
  const AdmissionStats admission = admission_.stats();
  health.rate_limited = admission.rate_limited;
  health.deadline_shed = admission.deadline_shed;
  health.brownout_refused = admission.brownout_refused;
  health.brownout_shed = admission.brownout_shed;
  std::function<void(HealthInfo*)> augmenter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    health.active_sessions = static_cast<int>(sessions_.size());
    health.opened = stats_.opened;
    health.finished = stats_.finished;
    health.evicted = stats_.evicted;
    health.refused = stats_.refused;
    health.storage_failed = stats_.storage_failed;
    health.journals_resumable = recovery_.resumable;
    health.journals_finished = recovery_.finished;
    health.journals_quarantined = recovery_.quarantined;
    health.journals_gced = recovery_.gced;
    augmenter = health_augmenter_;
  }
  if (augmenter) augmenter(&health);
  return {FormatHealthFrame(health)};
}

std::vector<std::string> SessionManager::HandleOpen(const ClientFrame& frame) {
  if (!ValidSessionId(frame.id)) {
    return {FormatErrorFrame(frame.id,
                             Status::InvalidArgument("bad session id"))};
  }

  const std::string journal_path = JournalPathFor(frame.id);
  if (frame.resume && !journal_path.empty()) {
    // A journal that was moved aside is a terminal verdict, not a missing
    // file: tell the client exactly that so it stops retrying the resume.
    struct stat st;
    if (::stat(journal_path.c_str(), &st) != 0 &&
        ::stat((journal_path + ".quarantined").c_str(), &st) == 0) {
      return {FormatErrorFrame(
          frame.id,
          Status::DataLoss("journal for session '" + frame.id +
                           "' was quarantined (damaged or unsupported); the "
                           "session cannot be resumed"),
          error_code::kJournalCorrupt, -1)};
    }
  }

  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategyByName(frame.strategy);
  if (!strategy.ok()) return {FormatErrorFrame(frame.id, strategy.status())};

  // Resolve which epoch of the data this session runs against. A fresh
  // open pins the current one; a resume re-pins exactly the epoch its
  // journal recorded — replaying journaled answers onto different data
  // would be silently wrong, so a version the ring no longer holds (or a
  // changed base content) is a terminal, structured refusal.
  std::shared_ptr<const LiveEpoch> epoch;
  uint64_t pin_hash = 0;
  uint64_t pin_version = 0;
  if (options_.live != nullptr) {
    epoch = options_.live->Current();
    pin_hash = epoch->content_hash;
    pin_version = epoch->version;
    struct stat st;
    if (frame.resume && !journal_path.empty() &&
        ::stat(journal_path.c_str(), &st) == 0) {
      Result<JournalHeader> header = PeekJournalHeader(journal_path);
      if (header.ok()) {
        std::shared_ptr<const LiveEpoch> pinned =
            options_.live->AtVersion(header->data_version);
        if (pinned == nullptr ||
            (header->content_hash != 0 &&
             header->content_hash != pinned->content_hash)) {
          return {FormatErrorFrame(
              frame.id,
              Status::FailedPrecondition(
                  "journal pins data version " +
                  std::to_string(header->data_version) +
                  " which this daemon no longer serves; open a fresh "
                  "session instead"),
              error_code::kVersionMismatch, -1)};
        }
        epoch = std::move(pinned);
        // Echo the journal's own pins (pre-live journals pin 0/0) so the
        // resumed header validates against what was written.
        pin_hash = header->content_hash;
        pin_version = header->data_version;
      }
      // A header that fails to peek falls through: the machine's own load
      // produces the established corrupt-journal handling below.
    }
  }

  auto served = std::make_shared<Served>();
  served->id = frame.id;
  served->strategy = std::move(*strategy);
  served->last_active = FaultRegistry::Global().Now();
  served->epoch = epoch;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      ++stats_.refused;
      return {FormatErrorFrame(frame.id,
                               Status::Unavailable("daemon is draining"),
                               error_code::kDraining, -1)};
    }
    if (static_cast<int>(sessions_.size()) >= options_.max_sessions) {
      ++stats_.refused;
      return {FormatErrorFrame(
          frame.id, Status::ResourceExhausted("session limit reached"),
          error_code::kOverloaded, options_.admission.retry_after_ms)};
    }
    if (sessions_.count(frame.id) != 0) {
      return {FormatErrorFrame(
          frame.id, Status::AlreadyExists("session id already open"))};
    }
    // Reserve the id before the (possibly slow) machine start so a racing
    // duplicate open fails fast.
    sessions_.emplace(frame.id, served);
  }

  SessionStepOptions step;
  step.journal_path = JournalPathFor(frame.id);
  step.resume = frame.resume;
  step.journal_fsync = options_.journal_fsync;
  step.pool = options_.pool;
  step.artifact = epoch != nullptr ? &epoch->artifact() : nullptr;
  step.content_hash = pin_hash;
  step.data_version = pin_version;
  const Session* target =
      epoch != nullptr ? epoch->session.get() : session_;
  const double budget =
      frame.has_budget ? frame.budget : session_->config().budget;

  Result<std::unique_ptr<SessionStateMachine>> machine =
      SessionStateMachine::Start(*target, *served->strategy, budget,
                                 std::move(step));
  if (!machine.ok()) {
    Erase(frame.id);
    if (machine.status().code() == StatusCode::kDataLoss &&
        !journal_path.empty()) {
      // The load proved mid-file corruption. Quarantine now so the state
      // is consistent with the refusal and later resumes hit the marker.
      if (QuarantineJournal(journal_path).ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++recovery_.quarantined;
      }
    }
    return {FormatErrorFrame(frame.id, machine.status())};
  }

  std::lock_guard<std::mutex> step_lock(served->step_mu);
  served->machine = std::move(*machine);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.opened;
  }
  return Advance(served);
}

std::vector<std::string> SessionManager::HandleStep(const ClientFrame& frame) {
  std::shared_ptr<Served> served = Find(frame.id);
  if (served == nullptr) {
    return {FormatErrorFrame(frame.id, Status::NotFound("no such session"))};
  }
  std::lock_guard<std::mutex> step_lock(served->step_mu);
  if (served->machine == nullptr) {
    return {FormatErrorFrame(frame.id,
                             Status::Unavailable("session still opening"))};
  }
  served->last_active = FaultRegistry::Global().Now();

  if (frame.op == ClientOp::kNext) return Advance(served);

  if (!served->last_question.has_value()) {
    return {FormatErrorFrame(
        frame.id, Status::FailedPrecondition("no question outstanding"))};
  }
  if (frame.seq != served->last_question->index) {
    return {FormatErrorFrame(
        frame.id,
        Status::InvalidArgument(
            "stale answer seq (re-sync with op=next)"))};
  }

  AnswerSubmission submission;
  submission.answer = frame.answer;
  submission.retry_cost = frame.retry_cost;
  submission.exhausted = frame.exhausted;
  Status submitted = served->machine->SubmitAnswer(submission);
  if (!submitted.ok()) return {FormatErrorFrame(frame.id, submitted)};
  served->last_question.reset();
  return Advance(served);
}

std::vector<std::string> SessionManager::HandleMutate(
    const ClientFrame& frame) {
  if (options_.live == nullptr) {
    return {FormatErrorFrame(
        frame.id,
        Status::NotImplemented("live mutations are not enabled here"))};
  }
  MutationBatch batch;
  batch.ops = frame.mutations;
  const MutationReceipt receipt = options_.live->Apply(batch);
  return {FormatMutatedFrame(frame.id, receipt.version, receipt.applied,
                             receipt.refused)};
}

std::vector<std::string> SessionManager::HandleClose(const ClientFrame& frame) {
  std::shared_ptr<Served> served = Find(frame.id);
  if (served == nullptr) {
    return {FormatErrorFrame(frame.id, Status::NotFound("no such session"))};
  }
  {
    std::lock_guard<std::mutex> step_lock(served->step_mu);
    if (served->machine != nullptr) served->machine->Abandon();
  }
  Erase(frame.id);
  return {FormatClosedFrame(frame.id)};
}

std::vector<std::string> SessionManager::Advance(
    const std::shared_ptr<Served>& served) {
  // A poisoned journal writer means the last acknowledged answer may not
  // be durable: stop advancing the session outward. The machine itself is
  // consistent (the session stays in the map, close still works, health
  // still counts it) — the refusal is about durability, not state.
  const Status write_status = served->machine->write_status();
  if (!write_status.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!served->storage_failed_counted) {
        served->storage_failed_counted = true;
        ++stats_.storage_failed;
      }
    }
    return {FormatErrorFrame(served->id, write_status,
                             error_code::kStorageFailed, -1)};
  }
  std::optional<SessionQuestion> question = served->machine->NextQuestion();
  if (question.has_value()) {
    served->last_question = question;
    return {FormatQuestionFrame(served->id, *question)};
  }
  Result<SessionReport> report = served->machine->Finish();
  Erase(served->id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.finished;
  }
  if (!report.ok()) return {FormatErrorFrame(served->id, report.status())};
  return {FormatReportFrame(served->id, *report)};
}

void SessionManager::BeginDrain() {
  std::vector<std::shared_ptr<Served>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;
    draining_ = true;
    for (auto& [id, served] : sessions_) live.push_back(served);
    sessions_.clear();
  }
  // Abandon outside the map lock: each abandon waits for its strategy to
  // wind down and syncs/closes its journal.
  for (auto& served : live) {
    std::lock_guard<std::mutex> step_lock(served->step_mu);
    if (served->machine != nullptr) served->machine->Abandon();
  }
}

int SessionManager::EvictIdle() {
  if (options_.idle_timeout_ms <= 0.0) return 0;
  // Under memory pressure an idle session holds exactly the resource the
  // brownout ladder is protecting, so the timeout tightens to a quarter.
  const double timeout_ms =
      admission_.brownout() >= BrownoutLevel::kBrownout
          ? options_.idle_timeout_ms / 4.0
          : options_.idle_timeout_ms;
  const auto now = FaultRegistry::Global().Now();
  std::vector<std::shared_ptr<Served>> idle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const double idle_ms = std::chrono::duration<double, std::milli>(
                                 now - it->second->last_active)
                                 .count();
      if (idle_ms > timeout_ms) {
        idle.push_back(it->second);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    stats_.evicted += static_cast<int>(idle.size());
  }
  for (auto& served : idle) {
    std::lock_guard<std::mutex> step_lock(served->step_mu);
    if (served->machine != nullptr) served->machine->Abandon();
  }
  return static_cast<int>(idle.size());
}

int SessionManager::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

bool SessionManager::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

SessionManagerStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

JournalRecoveryStats SessionManager::recovery_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_;
}

}  // namespace uguide
