// Serving throughput/latency: boots the in-process ServingDaemon on a
// loopback socket and drives it with the simulated expert at 1, 16, and 64
// concurrent sessions, reporting sessions/sec and per-question round-trip
// p50/p99. Emits BENCH_serving.fresh.json by default, never the checked-in
// BENCH_serving.json baseline (hand-rolled — this bench measures the
// daemon, so it owns its main loop instead of google-benchmark).
//
//   bench_serving [--rows=N] [--budget=B] [--strategy=NAME]
//                 [--out=BENCH_serving.fresh.json]

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/uguide.h"
#include "flag_parse.h"
#include "server/daemon.h"
#include "server/dataset.h"
#include "server/dataset_registry.h"
#include "server/protocol.h"

using namespace uguide;

namespace {

struct Args {
  int rows = 600;
  double budget = 24.0;
  std::string strategy = "FDQ-BMC";
  std::string out = "BENCH_serving.fresh.json";
};

/// Blocking line client (same shape as uguide_loadgen's Connection).
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool WriteLine(const std::string& line) {
    std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    while (true) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct LevelResult {
  int concurrency = 0;
  int sessions = 0;
  int completed = 0;
  size_t answers = 0;
  double elapsed_s = 0.0;
  double sessions_per_sec = 0.0;
  double rtt_p50_ms = 0.0;
  double rtt_p99_ms = 0.0;
};

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(values->size() - 1) / 100.0);
  return (*values)[index];
}

/// Runs `sessions` sessions at `concurrency` workers against the daemon.
LevelResult RunLevel(const Session& session, int port, const Args& args,
                     int concurrency, int sessions) {
  std::atomic<int> next{0};
  std::atomic<int> completed{0};
  std::mutex rtt_mu;
  std::vector<double> rtt_ms;

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int w = 0; w < concurrency; ++w) {
    workers.emplace_back([&, w] {
      Connection conn;
      if (!conn.Connect(port)) return;
      std::vector<double> local;
      while (true) {
        const int index = next.fetch_add(1);
        if (index >= sessions) break;
        const SessionConfig& config = session.config();
        SimulatedExpert expert(&session.true_violations(), &session.truth(),
                               session.dirty().NumAttributes(),
                               session.true_fds(), config.idk_rate,
                               config.expert_seed, config.wrong_rate);
        ClientFrame open;
        open.op = ClientOp::kOpen;
        open.id = "bench-c" + std::to_string(concurrency) + "-" +
                  std::to_string(index);
        open.strategy = args.strategy;
        open.budget = args.budget;
        open.has_budget = true;
        if (!conn.WriteLine(FormatClientFrame(open))) return;
        auto sent_at = std::chrono::steady_clock::now();
        while (true) {
          std::string line;
          if (!conn.ReadLine(&line)) return;
          local.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - sent_at)
                              .count());
          Result<ServerFrame> frame = ParseServerFrame(line);
          if (!frame.ok()) return;
          if (frame->type == ServerFrameType::kReport) {
            completed.fetch_add(1);
            break;
          }
          if (frame->type != ServerFrameType::kQuestion) return;
          const SessionQuestion& q = frame->question;
          ClientFrame answer;
          answer.op = ClientOp::kAnswer;
          answer.id = open.id;
          answer.seq = q.index;
          switch (q.kind) {
            case QuestionKind::kCell:
              answer.answer = expert.IsCellErroneous(q.cell);
              break;
            case QuestionKind::kTuple:
              answer.answer = expert.IsTupleClean(q.row);
              break;
            case QuestionKind::kFd:
              answer.answer = expert.IsFdValid(q.fd);
              break;
          }
          sent_at = std::chrono::steady_clock::now();
          if (!conn.WriteLine(FormatClientFrame(answer))) return;
        }
      }
      std::lock_guard<std::mutex> lock(rtt_mu);
      rtt_ms.insert(rtt_ms.end(), local.begin(), local.end());
    });
  }
  for (std::thread& t : workers) t.join();

  LevelResult result;
  result.concurrency = concurrency;
  result.sessions = sessions;
  result.completed = completed.load();
  result.answers = rtt_ms.size();
  result.elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
  result.sessions_per_sec =
      result.elapsed_s > 0.0 ? result.completed / result.elapsed_s : 0.0;
  result.rtt_p50_ms = Percentile(&rtt_ms, 50.0);
  result.rtt_p99_ms = Percentile(&rtt_ms, 99.0);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags("bench_serving");
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto [flag, value] = FlagParser::Split(argv[i]);
    if (flag == "--rows") {
      if (!flags.Int("--rows", value, 1, &args.rows)) return 2;
    } else if (flag == "--budget") {
      if (!flags.Double("--budget", value, 0.0, FlagParser::kMax,
                        &args.budget)) {
        return 2;
      }
    } else if (flag == "--strategy") {
      if (!MakeStrategyByName(value).ok()) {
        flags.Error("--strategy", value, "a strategy name");
        return 2;
      }
      args.strategy = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      std::fprintf(stderr, "bench_serving: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  ServedDatasetOptions dataset;
  dataset.rows = args.rows;
  dataset.budget = args.budget;
  std::fprintf(stderr, "bench_serving: building dataset (%d rows)...\n",
               dataset.rows);

  // The production shape: shared artifacts from the registry, session
  // steps on the process pool behind the epoll reactor.
  ThreadPool pool(ThreadPool::kAuto);
  DatasetRegistryOptions registry_options;
  registry_options.pool = &pool;
  DatasetRegistry registry(registry_options);
  std::shared_ptr<const DatasetArtifacts> artifacts =
      registry.Open(dataset).ValueOrDie();
  const Session& session = artifacts->session;

  DaemonOptions options;
  options.manager.max_sessions = 128;
  options.manager.pool = &pool;
  auto daemon = ServingDaemon::Start(artifacts, options).ValueOrDie();

  std::printf("== Serving throughput (rows=%d, budget=%g, strategy=%s) ==\n",
              args.rows, args.budget, args.strategy.c_str());
  std::printf("%12s %10s %12s %14s %12s %12s\n", "concurrency", "sessions",
              "answers", "sessions/sec", "rtt_p50_ms", "rtt_p99_ms");

  std::vector<LevelResult> results;
  for (int concurrency : {1, 16, 64}) {
    // At least 64 sessions per level so short levels do not ride on
    // scheduler luck, and 4x concurrency so the ramp/drain tail
    // (stragglers running below full concurrency) does not dominate the
    // measured throughput.
    const int sessions = std::max(64, 4 * concurrency);
    LevelResult level =
        RunLevel(session, daemon->port(), args, concurrency, sessions);
    if (level.completed != level.sessions) {
      std::fprintf(stderr,
                   "bench_serving: only %d/%d sessions completed at "
                   "concurrency %d\n",
                   level.completed, level.sessions, concurrency);
      return 1;
    }
    std::printf("%12d %10d %12zu %14.1f %12.3f %12.3f\n", level.concurrency,
                level.sessions, level.answers, level.sessions_per_sec,
                level.rtt_p50_ms, level.rtt_p99_ms);
    results.push_back(level);
  }
  // Overload/robustness counters, captured before shutdown. A clean bench
  // run admits everything; nonzero sheds here mean the measurements were
  // taken under (unintended) pressure. Additive: the regression gate
  // (tools/check_bench.py) reads only "levels".
  const SessionManagerStats manager_stats = daemon->manager().stats();
  const AdmissionStats admission = daemon->manager().admission_stats();
  const ReactorStats reactor = daemon->reactor().stats();
  daemon->Shutdown();

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_serving: cannot write %s\n",
                 args.out.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"serving\",\n"
               "  \"rows\": %d,\n"
               "  \"budget\": %g,\n"
               "  \"strategy\": \"%s\",\n"
               "  \"levels\": [\n",
               args.rows, args.budget, args.strategy.c_str());
  for (size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    std::fprintf(out,
                 "    {\"concurrency\": %d, \"sessions\": %d, "
                 "\"answers\": %zu, \"elapsed_s\": %.6f, "
                 "\"sessions_per_sec\": %.2f, \"rtt_p50_ms\": %.4f, "
                 "\"rtt_p99_ms\": %.4f}%s\n",
                 r.concurrency, r.sessions, r.answers, r.elapsed_s,
                 r.sessions_per_sec, r.rtt_p50_ms, r.rtt_p99_ms,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"counters\": {\n"
               "    \"opened\": %d, \"finished\": %d, \"evicted\": %d, "
               "\"refused\": %d,\n"
               "    \"rate_limited\": %lld, \"deadline_shed\": %lld, "
               "\"brownout_refused\": %lld, \"brownout_shed\": %lld,\n"
               "    \"accepted\": %lld, \"dropped\": %lld, "
               "\"dropped_slow_reader\": %lld, \"reaped_idle\": %lld\n"
               "  }\n}\n",
               manager_stats.opened, manager_stats.finished,
               manager_stats.evicted, manager_stats.refused,
               static_cast<long long>(admission.rate_limited),
               static_cast<long long>(admission.deadline_shed),
               static_cast<long long>(admission.brownout_refused),
               static_cast<long long>(admission.brownout_shed),
               static_cast<long long>(reactor.accepted),
               static_cast<long long>(reactor.dropped),
               static_cast<long long>(reactor.dropped_slow_reader),
               static_cast<long long>(reactor.reaped_idle));
  std::fclose(out);
  std::fprintf(stderr, "bench_serving: wrote %s\n", args.out.c_str());
  return 0;
}
