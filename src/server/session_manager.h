#ifndef UGUIDE_SERVER_SESSION_MANAGER_H_
#define UGUIDE_SERVER_SESSION_MANAGER_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "core/session_state.h"
#include "live/live_dataset.h"
#include "server/admission.h"
#include "server/protocol.h"

namespace uguide {

/// Resource and policy knobs of a SessionManager.
struct SessionManagerOptions {
  /// Concurrent served sessions; opens beyond this are refused with
  /// kResourceExhausted (the client retries elsewhere/later).
  int max_sessions = 64;

  /// Sessions idle longer than this (fault-aware clock) are abandoned by
  /// EvictIdle — their journals survive, so an evicted session is exactly
  /// a crashed one: reopen with resume. 0 disables eviction.
  double idle_timeout_ms = 0.0;

  /// Directory for per-session journals (`<dir>/<id>.journal`). Empty
  /// disables journaling — sessions are then served memory-only.
  std::string journal_dir;

  /// Durability policy of every served journal.
  JournalFsyncMode journal_fsync = JournalFsyncMode::kEvery;

  /// Retention for *finished* journals (`--journal-retain-s`): the startup
  /// recovery scan deletes any journal whose durable end marker is older
  /// than this many seconds (by file mtime). 0 = keep forever. Resumable
  /// and quarantined journals are never GC'd — one holds live work, the
  /// other is evidence.
  double journal_retain_s = 0.0;

  /// Shared process pool for the first build of the served session's
  /// violation artifact (Session::artifact); null = the session's own
  /// fallback. Registry datasets arrive with the artifact already built.
  ThreadPool* pool = nullptr;

  /// The served session's artifact engine and graph, as DatasetArtifacts
  /// exposes them. Optional and never needed: every run reads the served
  /// session's own artifact (or its live epoch's). When set, they must be
  /// that artifact's pieces (checked at construction).
  ViolationEngine* engine = nullptr;
  const ViolationGraph* graph = nullptr;

  /// Live mutation subsystem. When set, `op=mutate` applies batches here,
  /// and every open resolves its epoch (rebased session, its engine and
  /// artifact, version pins) from the live dataset instead of the served
  /// session. Null = static data; op=mutate is refused. Must outlive the
  /// manager.
  LiveDataset* live = nullptr;

  /// Overload-protection knobs, all off by default.
  AdmissionOptions admission;
};

/// Counters exposed for the daemon's exit summary and tests.
struct SessionManagerStats {
  int opened = 0;
  int finished = 0;
  int evicted = 0;
  int refused = 0;
  /// Sessions whose journal writer became poisoned (failed write/fsync)
  /// and were converted to structured `storage_failed` refusals.
  int storage_failed = 0;
};

/// What the startup recovery scan found in journal_dir (plus runtime
/// quarantines). Reported via op=health and the daemon exit summary: the
/// crash-restart gate checks that no admitted session is missing from
/// resumable + finished + quarantined.
struct JournalRecoveryStats {
  int resumable = 0;    ///< intact, unfinished: a resume will replay these
  int finished = 0;     ///< durable end marker present (retained)
  int quarantined = 0;  ///< damaged files moved to *.quarantined
  int gced = 0;         ///< finished journals deleted past journal_retain_s
};

/// \brief Owns the N concurrent served sessions of a daemon.
///
/// Each session is a journal-backed SessionStateMachine plus the strategy
/// instance it runs, keyed by a client-chosen id. HandleLine is the entire
/// server-side protocol: parse one client frame, advance the addressed
/// session, and return the reply frames. It is safe to call concurrently
/// from many connection threads — the session map has its own lock, and a
/// per-session mutex serializes the machine so two connections (e.g. a
/// stale one and its reconnect) cannot interleave a step.
///
/// Lifecycle: a session leaves the map when its report is delivered, when
/// the client closes it, or when EvictIdle times it out. The last two
/// abandon the machine but keep the journal, so the session can be
/// reopened with `resume` — eviction is deliberately indistinguishable
/// from a daemon crash.
class SessionManager {
 public:
  /// `session` (the dataset/config) must outlive the manager, as must the
  /// pool in `options`.
  SessionManager(const Session* session, SessionManagerOptions options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Handles one protocol line, returning the frames to write back (each
  /// without trailing newline). Malformed input yields an error frame,
  /// never a crash. `enqueued` is when the reactor framed the line — the
  /// admission queue deadline sheds lines that waited too long. The 1-arg
  /// form stamps "now" (no queue, nothing to shed).
  std::vector<std::string> HandleLine(std::string_view line);
  std::vector<std::string> HandleLine(
      std::string_view line, std::chrono::steady_clock::time_point enqueued);

  /// Refuses new opens from now on and abandons every in-flight session
  /// (journals synced and preserved). Idempotent; part of SIGTERM drain.
  void BeginDrain();

  /// Abandons sessions idle past the timeout. Returns how many.
  int EvictIdle();

  int active_sessions() const;
  bool draining() const;
  SessionManagerStats stats() const;
  /// The recovery index built at construction, plus quarantines since.
  JournalRecoveryStats recovery_stats() const;
  AdmissionStats admission_stats() const { return admission_.stats(); }

  /// Installed by the daemon to add reactor/connection fields to op=health
  /// replies; called (outside the manager lock) with the frame the manager
  /// already filled from its own counters.
  void SetHealthAugmenter(std::function<void(HealthInfo*)> augmenter);

 private:
  struct Served {
    std::string id;
    std::unique_ptr<Strategy> strategy;
    std::unique_ptr<SessionStateMachine> machine;
    /// The question currently out with the client (answer seq validation
    /// and op=next re-delivery).
    std::optional<SessionQuestion> last_question;
    std::chrono::steady_clock::time_point last_active;
    /// Serializes machine access across connection threads.
    std::mutex step_mu;
    /// The storage_failed counter ticked once for this session.
    bool storage_failed_counted = false;
    /// Pins the live epoch this session was opened against, so the ring
    /// moving on cannot invalidate the artifact/session the machine holds
    /// pointers into. Null when serving static data.
    std::shared_ptr<const LiveEpoch> epoch;
  };

  std::vector<std::string> HandleOpen(const ClientFrame& frame);
  std::vector<std::string> HandleStep(const ClientFrame& frame);
  std::vector<std::string> HandleClose(const ClientFrame& frame);
  std::vector<std::string> HandleMutate(const ClientFrame& frame);
  std::vector<std::string> HandleHealth();

  /// Pulls the next question (or the final report) out of `served`.
  /// Caller holds served->step_mu.
  std::vector<std::string> Advance(const std::shared_ptr<Served>& served);

  std::shared_ptr<Served> Find(const std::string& id);
  void Erase(const std::string& id);
  std::string JournalPathFor(const std::string& id) const;

  /// Startup scan over journal_dir: classify every journal as resumable /
  /// finished / quarantined, move damaged files aside, and GC finished
  /// journals past the retention window. Runs once, from the constructor,
  /// before any connection exists.
  void RecoverJournals();

  const Session* session_;
  const SessionManagerOptions options_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Served>> sessions_;
  bool draining_ = false;
  SessionManagerStats stats_;
  JournalRecoveryStats recovery_;
  std::function<void(HealthInfo*)> health_augmenter_;
};

}  // namespace uguide

#endif  // UGUIDE_SERVER_SESSION_MANAGER_H_
