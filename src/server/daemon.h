#ifndef UGUIDE_SERVER_DAEMON_H_
#define UGUIDE_SERVER_DAEMON_H_

#include <functional>
#include <memory>

#include "core/session.h"
#include "server/dataset_registry.h"
#include "server/reactor.h"
#include "server/session_manager.h"

namespace uguide {

/// Options of a ServingDaemon beyond the manager's.
struct DaemonOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  int port = 0;
  /// Listen backlog.
  int backlog = 64;
  /// Concurrent client connections; accepts beyond this are closed
  /// immediately (`--max-connections`). 0 = unlimited. Distinct from
  /// manager.max_sessions: connections are cheap reactor state, sessions
  /// are fibers with journals.
  int max_connections = 0;
  /// Maintenance tick period (`--tick-ms`): drives reactor idle reaping
  /// and SessionManager::EvictIdle. 0 disables the tick (and with it all
  /// periodic eviction).
  double tick_interval_ms = 250.0;
  /// Reap connections with no complete line within this window
  /// (`--read-idle-ms`, slow-loris defense). 0 = off.
  double read_idle_ms = 0.0;
  /// Per-connection unread-reply cap before a slow reader is dropped
  /// (`--max-pending-out-kb`). 0 = unlimited.
  size_t max_pending_out_bytes = 4u << 20;
  /// Extra per-tick work (after eviction), e.g. registry maintenance.
  std::function<void()> on_tick;
  SessionManagerOptions manager;
};

/// \brief The uguided network front end: a loopback TCP listener speaking
/// the newline-delimited JSON protocol on an epoll reactor.
///
/// The daemon is a thin composition shell — every byte of session logic
/// lives in SessionManager, and every byte of socket handling in Reactor,
/// which is why the serving tests can exercise the manager without sockets
/// and the reactor without sessions. Each parsed request line becomes a
/// pool task running SessionManager::HandleLine; sessions are fibers, so
/// thousands of concurrent sessions execute on the pool's bounded threads.
///
/// Connections are stateless: any connection may address any session id,
/// so a client that lost its connection reconnects and continues with
/// `op=next` (NextQuestion is idempotent). A dead client therefore never
/// kills a session — at worst the idle deadline evicts it, journal intact.
///
/// Robustness decisions, all covered by tests:
///  - SIGPIPE is ignored process-wide (plus MSG_NOSIGNAL on every send):
///    writing to a closed socket is a per-connection error, not death.
///  - The fault sites "server.accept", "server.read" and "server.write"
///    fire on the corresponding paths (see Reactor), so `--fault-plan`
///    drives connection failures as deterministically as expert failures.
///  - Shutdown() is the graceful SIGTERM path: stop accepting, drain
///    in-flight steps, close connections, then drain the manager
///    (abandoning sessions, syncing journals).
class ServingDaemon {
 public:
  /// Binds, listens, and starts the reactor. `session` must outlive the
  /// daemon. Every run reads the session's own violation artifact, built
  /// by the first open.
  static Result<std::unique_ptr<ServingDaemon>> Start(const Session* session,
                                                      DaemonOptions options);

  /// As above, serving a DatasetRegistry artifact bundle: every session
  /// shares the bundle's prebuilt violation artifact, and the daemon
  /// pins the bundle against eviction for its lifetime.
  static Result<std::unique_ptr<ServingDaemon>> Start(
      std::shared_ptr<const DatasetArtifacts> artifacts, DaemonOptions options);

  /// Calls Shutdown() if it has not run yet.
  ~ServingDaemon();

  ServingDaemon(const ServingDaemon&) = delete;
  ServingDaemon& operator=(const ServingDaemon&) = delete;

  /// The bound port (resolved when options.port was 0).
  int port() const { return reactor_->port(); }

  SessionManager& manager() { return *manager_; }

  const Reactor& reactor() const { return *reactor_; }

  /// Graceful drain; idempotent, safe to call from a signal-watching
  /// thread (not from the handler itself).
  void Shutdown();

 private:
  ServingDaemon() = default;

  static Result<std::unique_ptr<ServingDaemon>> StartImpl(
      const Session* session, std::shared_ptr<const DatasetArtifacts> artifacts,
      DaemonOptions options);

  DaemonOptions options_;
  /// Pins the shared artifact bundle (null when serving a bare Session).
  std::shared_ptr<const DatasetArtifacts> artifacts_;
  std::unique_ptr<SessionManager> manager_;
  std::unique_ptr<Reactor> reactor_;
  bool shut_down_ = false;  // Shutdown() already ran (owner thread only).
};

}  // namespace uguide

#endif  // UGUIDE_SERVER_DAEMON_H_
