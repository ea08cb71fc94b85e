// uguided — the UGuide serving daemon: N concurrent interactive sessions
// over a newline-delimited JSON TCP protocol (see src/server/protocol.h).
//
//   uguided [--port=P] [--port-file=F] [--max-sessions=N]
//           [--max-connections=N] [--idle-timeout-ms=T] [--journal-dir=D]
//           [--journal-fsync=every|batch] [--journal-retain-s=T]
//           [--threads=N]
//           [--memory-budget-mb=M] [--fault-plan=PLAN]
//           [--tick-ms=T] [--read-idle-ms=T] [--max-pending-out-kb=K]
//           [--queue-deadline-ms=T] [--rate-limit=R] [--rate-burst=B]
//           [--rows=R] [--error-rate=E] [--seed=S] [--idk-rate=I]
//           [--budget=B]
//
// The daemon pins one dataset at startup (the hospital benchmark built
// from --rows/--error-rate/--seed — the recipe in src/server/dataset.h),
// opened through a DatasetRegistry so the expensive shared artifacts
// (session, warmed violation engine, prebuilt graph) are built once and
// shared read-only by every session; every served session runs one
// strategy against it. Clients choose the strategy, budget, and session
// id per open. --port=0 binds an ephemeral port, printed on stdout and
// optionally written to --port-file for scripts. SIGTERM/SIGINT drain
// gracefully: stop accepting, abandon in-flight sessions (journals
// synced, resumable), print a summary.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "live/live_dataset.h"
#include "server/daemon.h"
#include "server/dataset.h"
#include "server/dataset_registry.h"

#include "flag_parse.h"

using namespace uguide;

namespace {

volatile sig_atomic_t g_stop = 0;

void HandleStopSignal(int) { g_stop = 1; }

struct Args {
  int port = 0;
  std::string port_file;
  int max_sessions = 64;
  int max_connections = 0;
  double idle_timeout_ms = 0.0;
  std::string journal_dir;
  JournalFsyncMode journal_fsync = JournalFsyncMode::kEvery;
  double journal_retain_s = 0.0;
  int threads = 1;
  int memory_budget_mb = 0;
  std::string fault_plan;
  double tick_ms = 250.0;
  double read_idle_ms = 0.0;
  int max_pending_out_kb = 4096;
  double queue_deadline_ms = 0.0;
  double rate_limit = 0.0;
  double rate_burst = 8.0;
  ServedDatasetOptions dataset;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: uguided [--port=P] [--port-file=F] [--max-sessions=N]\n"
      "               [--max-connections=N] [--idle-timeout-ms=T]\n"
      "               [--journal-dir=D]\n"
      "               [--journal-fsync=every|batch] [--journal-retain-s=T]\n"
      "               [--threads=N]\n"
      "               [--memory-budget-mb=M] [--fault-plan=PLAN]\n"
      "               [--tick-ms=T] [--read-idle-ms=T]\n"
      "               [--max-pending-out-kb=K] [--queue-deadline-ms=T]\n"
      "               [--rate-limit=R] [--rate-burst=B]\n"
      "               [--rows=R] [--error-rate=E] [--seed=S]\n"
      "               [--idk-rate=I] [--budget=B]\n"
      "\n"
      "overload protection:\n"
      "  --tick-ms=T            maintenance tick period: drives idle session\n"
      "                         eviction, registry eviction, and connection\n"
      "                         reaping without client traffic (default 250;\n"
      "                         0 disables periodic eviction)\n"
      "  --read-idle-ms=T       reap connections with no complete request\n"
      "                         line for T ms (slow-loris defense; 0=off)\n"
      "  --max-pending-out-kb=K drop a connection holding more than K KiB of\n"
      "                         unread replies (slow reader; 0=unlimited,\n"
      "                         default 4096)\n"
      "  --queue-deadline-ms=T  shed requests that waited more than T ms\n"
      "                         between framing and execution (0=off)\n"
      "  --rate-limit=R         per-session-id token bucket: R ops/sec with\n"
      "                         burst --rate-burst (0=off)\n"
      "durability:\n"
      "  --journal-retain-s=T   delete finished journals older than T\n"
      "                         seconds at startup (0=keep forever);\n"
      "                         resumable and quarantined journals are\n"
      "                         never deleted\n"
      "Refusals carry machine-readable code + retry_after_ms; op=health\n"
      "reports the brownout level and all shed/refused/dropped counters.\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  const FlagParser flags("uguided");
  for (int i = 1; i < argc; ++i) {
    const auto [flag, value] = FlagParser::Split(argv[i]);
    if (flag == "--port") {
      if (!flags.Int("--port", value, 0, &args->port)) return false;
    } else if (flag == "--port-file") {
      args->port_file = value;
    } else if (flag == "--max-sessions") {
      if (!flags.Int("--max-sessions", value, 1, &args->max_sessions)) {
        return false;
      }
    } else if (flag == "--max-connections") {
      if (!flags.Int("--max-connections", value, 0, &args->max_connections)) {
        return false;
      }
    } else if (flag == "--idle-timeout-ms") {
      if (!flags.Double("--idle-timeout-ms", value, 0.0, FlagParser::kMax,
                        &args->idle_timeout_ms)) {
        return false;
      }
    } else if (flag == "--journal-dir") {
      args->journal_dir = value;
    } else if (flag == "--journal-fsync") {
      Result<JournalFsyncMode> mode = ParseJournalFsyncMode(value);
      if (!mode.ok()) {
        return flags.Error("--journal-fsync", value, "every|batch");
      }
      args->journal_fsync = *mode;
    } else if (flag == "--journal-retain-s") {
      if (!flags.Double("--journal-retain-s", value, 0.0, FlagParser::kMax,
                        &args->journal_retain_s)) {
        return false;
      }
    } else if (flag == "--threads") {
      if (!flags.Int("--threads", value, 0, &args->threads)) return false;
    } else if (flag == "--memory-budget-mb") {
      if (!flags.Int("--memory-budget-mb", value, 0, &args->memory_budget_mb)) {
        return false;
      }
    } else if (flag == "--fault-plan") {
      args->fault_plan = value;
    } else if (flag == "--tick-ms") {
      if (!flags.Double("--tick-ms", value, 0.0, FlagParser::kMax,
                        &args->tick_ms)) {
        return false;
      }
    } else if (flag == "--read-idle-ms") {
      if (!flags.Double("--read-idle-ms", value, 0.0, FlagParser::kMax,
                        &args->read_idle_ms)) {
        return false;
      }
    } else if (flag == "--max-pending-out-kb") {
      if (!flags.Int("--max-pending-out-kb", value, 0,
                     &args->max_pending_out_kb)) {
        return false;
      }
    } else if (flag == "--queue-deadline-ms") {
      if (!flags.Double("--queue-deadline-ms", value, 0.0, FlagParser::kMax,
                        &args->queue_deadline_ms)) {
        return false;
      }
    } else if (flag == "--rate-limit") {
      if (!flags.Double("--rate-limit", value, 0.0, FlagParser::kMax,
                        &args->rate_limit)) {
        return false;
      }
    } else if (flag == "--rate-burst") {
      if (!flags.Double("--rate-burst", value, 0.0, FlagParser::kMax,
                        &args->rate_burst)) {
        return false;
      }
    } else if (flag == "--rows") {
      if (!flags.Int("--rows", value, 1, &args->dataset.rows)) return false;
    } else if (flag == "--error-rate") {
      if (!flags.Double("--error-rate", value, 0.0, 1.0,
                        &args->dataset.error_rate)) {
        return false;
      }
    } else if (flag == "--seed") {
      if (!flags.U64("--seed", value, &args->dataset.seed)) return false;
    } else if (flag == "--idk-rate") {
      if (!flags.Double("--idk-rate", value, 0.0, 1.0,
                        &args->dataset.idk_rate)) {
        return false;
      }
    } else if (flag == "--budget") {
      if (!flags.Double("--budget", value, 0.0, FlagParser::kMax,
                        &args->dataset.budget)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "uguided: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  if (!args.fault_plan.empty()) {
    Status loaded = FaultRegistry::Global().LoadPlan(args.fault_plan);
    if (!loaded.ok()) {
      std::fprintf(stderr, "uguided: bad --fault-plan: %s\n",
                   loaded.message().c_str());
      return 2;
    }
  }

  const int threads =
      args.threads > 0
          ? args.threads
          : static_cast<int>(std::thread::hardware_concurrency());
  args.dataset.num_threads = threads;

  MemoryBudget memory =
      args.memory_budget_mb > 0
          ? MemoryBudget::FromMegabytes(args.memory_budget_mb)
          : MemoryBudget();
  ThreadPool pool(std::max(1, threads));

  DatasetRegistryOptions registry_options;
  registry_options.pool = &pool;
  registry_options.memory_budget =
      args.memory_budget_mb > 0 ? &memory : nullptr;
  DatasetRegistry registry(registry_options);

  std::fprintf(stderr, "uguided: building dataset (%d rows)...\n",
               args.dataset.rows);
  Result<std::shared_ptr<const DatasetArtifacts>> artifacts =
      registry.Open(args.dataset);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "uguided: dataset: %s\n",
                 artifacts.status().ToString().c_str());
    return 1;
  }

  // The live mutation subsystem wraps the registry's immutable bundle:
  // op=mutate batches advance it epoch by epoch while open sessions stay
  // pinned to the epoch they started against.
  LiveDataset live(&(*artifacts)->session, (*artifacts)->key.content_hash,
                   &pool);

  DaemonOptions options;
  options.port = args.port;
  options.max_connections = args.max_connections;
  options.tick_interval_ms = args.tick_ms;
  options.read_idle_ms = args.read_idle_ms;
  options.max_pending_out_bytes =
      static_cast<size_t>(args.max_pending_out_kb) * 1024;
  // Registry eviction rides the same maintenance tick as session eviction.
  options.on_tick = [&registry] { registry.EvictIdle(); };
  options.manager.max_sessions = args.max_sessions;
  options.manager.idle_timeout_ms = args.idle_timeout_ms;
  options.manager.journal_dir = args.journal_dir;
  options.manager.journal_fsync = args.journal_fsync;
  options.manager.journal_retain_s = args.journal_retain_s;
  options.manager.pool = &pool;
  options.manager.memory_budget =
      args.memory_budget_mb > 0 ? &memory : nullptr;
  options.manager.admission.queue_deadline_ms = args.queue_deadline_ms;
  options.manager.admission.rate_limit_per_sec = args.rate_limit;
  options.manager.admission.rate_burst = args.rate_burst;
  options.manager.live = &live;

  Result<std::unique_ptr<ServingDaemon>> daemon =
      ServingDaemon::Start(*artifacts, options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "uguided: %s\n",
                 daemon.status().ToString().c_str());
    return 1;
  }

  if (!args.journal_dir.empty()) {
    // The recovery index (built by the manager before the port opened):
    // what the previous incarnation left behind and what happened to it.
    const JournalRecoveryStats recovery = (*daemon)->manager().recovery_stats();
    std::printf(
        "uguided: recovery. resumable=%d finished_journals=%d quarantined=%d"
        " gced=%d\n",
        recovery.resumable, recovery.finished, recovery.quarantined,
        recovery.gced);
  }
  std::printf("uguided: listening on 127.0.0.1:%d\n", (*daemon)->port());
  std::fflush(stdout);
  if (!args.port_file.empty()) {
    std::FILE* f = std::fopen(args.port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%d\n", (*daemon)->port());
      std::fclose(f);
    }
  }

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  // Eviction now rides the reactor's maintenance tick (--tick-ms); the
  // main thread only waits for the stop signal.
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "uguided: draining...\n");
  (*daemon)->Shutdown();
  const SessionManagerStats stats = (*daemon)->manager().stats();
  const AdmissionStats admission = (*daemon)->manager().admission_stats();
  const ReactorStats reactor = (*daemon)->reactor().stats();
  const JournalRecoveryStats recovery = (*daemon)->manager().recovery_stats();
  std::printf(
      "uguided: done. opened=%d finished=%d evicted=%d refused=%d"
      " storage_failed=%d quarantined=%d\n",
      stats.opened, stats.finished, stats.evicted, stats.refused,
      stats.storage_failed, recovery.quarantined);
  std::printf(
      "uguided: overload. rate_limited=%" PRId64 " deadline_shed=%" PRId64
      " brownout_refused=%" PRId64 " brownout_shed=%" PRId64
      " dropped=%" PRId64 " dropped_slow_reader=%" PRId64
      " reaped_idle=%" PRId64 "\n",
      admission.rate_limited, admission.deadline_shed,
      admission.brownout_refused, admission.brownout_shed, reactor.dropped,
      reactor.dropped_slow_reader, reactor.reaped_idle);
  const LiveDataset::Stats live_stats = live.stats();
  std::printf(
      "uguided: live. version=%" PRIu64 " batches=%" PRId64
      " ops_applied=%" PRId64 " ops_refused=%" PRId64
      " fds_recomputed=%" PRId64 " fds_skipped=%" PRId64 "\n",
      live.Current()->version, live_stats.batches_applied,
      live_stats.ops_applied, live_stats.ops_refused,
      live_stats.fds_recomputed, live_stats.fds_skipped);
  return 0;
}
