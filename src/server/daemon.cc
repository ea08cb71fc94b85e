#include "server/daemon.h"

#include <utility>

namespace uguide {

Result<std::unique_ptr<ServingDaemon>> ServingDaemon::Start(
    const Session* session, DaemonOptions options) {
  return StartImpl(session, nullptr, std::move(options));
}

Result<std::unique_ptr<ServingDaemon>> ServingDaemon::Start(
    std::shared_ptr<const DatasetArtifacts> artifacts, DaemonOptions options) {
  // Every session the manager opens reads the bundle's session artifact,
  // built by the registry. The bundle pins it for the daemon's life.
  const Session* session = &artifacts->session;
  return StartImpl(session, std::move(artifacts), std::move(options));
}

Result<std::unique_ptr<ServingDaemon>> ServingDaemon::StartImpl(
    const Session* session, std::shared_ptr<const DatasetArtifacts> artifacts,
    DaemonOptions options) {
  std::unique_ptr<ServingDaemon> daemon(new ServingDaemon());
  daemon->options_ = std::move(options);
  daemon->artifacts_ = std::move(artifacts);
  daemon->manager_ =
      std::make_unique<SessionManager>(session, daemon->options_.manager);

  ReactorOptions reactor;
  reactor.port = daemon->options_.port;
  reactor.backlog = daemon->options_.backlog;
  reactor.max_connections = daemon->options_.max_connections;
  reactor.tick_interval_ms = daemon->options_.tick_interval_ms;
  reactor.read_idle_ms = daemon->options_.read_idle_ms;
  reactor.max_pending_out_bytes = daemon->options_.max_pending_out_bytes;
  reactor.pool = daemon->options_.manager.pool;
  // The tick is the daemon's only periodic driver: idle sessions are
  // evicted here even when no client traffic arrives.
  reactor.on_tick = [manager = daemon->manager_.get(),
                     extra = daemon->options_.on_tick] {
    manager->EvictIdle();
    if (extra) extra();
  };
  reactor.handler = [manager = daemon->manager_.get()](
                        std::string_view line,
                        std::chrono::steady_clock::time_point enqueued) {
    return manager->HandleLine(line, enqueued);
  };
  UGUIDE_ASSIGN_OR_RETURN(daemon->reactor_, Reactor::Start(std::move(reactor)));

  // op=health replies get the connection-level view only the reactor has.
  daemon->manager_->SetHealthAugmenter(
      [reactor = daemon->reactor_.get()](HealthInfo* health) {
        health->active_connections = reactor->active_connections();
        const ReactorStats stats = reactor->stats();
        health->accepted = stats.accepted;
        health->dropped = stats.dropped;
        health->dropped_slow_reader = stats.dropped_slow_reader;
        health->reaped_idle = stats.reaped_idle;
      });
  return daemon;
}

ServingDaemon::~ServingDaemon() { Shutdown(); }

void ServingDaemon::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Stop the network first (joins the reactor and every in-flight step),
  // then abandon sessions; their journals are synced and preserved. Either
  // member may be null when StartImpl bailed out part-way (e.g. the bind
  // raced a dying incarnation of the same daemon on restart).
  if (reactor_ != nullptr) reactor_->Shutdown();
  if (manager_ != nullptr) manager_->BeginDrain();
}

}  // namespace uguide
