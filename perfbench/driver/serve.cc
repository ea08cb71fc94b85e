// serve-mix: the shipped uguided over loopback TCP.
//
// One process generates all load: one closed-loop expert client on one
// connection. Set-up is the daemon's boot (spawn until listening), repeated
// and reported as a median. After a warm-up rotation, the measured phase
// runs a fixed number of whole rotations of the strategy mix, sized from
// --seconds. Every served report is then checked byte for byte against an
// in-process reference computed after the daemon stops, and against the
// digest pinned for its strategy in perfbench/pinned_reports.txt.
//
// A traced run (--trace=1) makes a short fixed TCP phase, then replays the
// same frames in-process through DatasetRegistry::Open,
// SessionManager::HandleLine and the protocol functions, once untraced and
// once with spans, and probes the journal and live layers directly.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/session_journal.h"
#include "core/session_state.h"
#include "driver/workloads.h"
#include "live/live_dataset.h"
#include "oracle/simulated_expert.h"
#include "server/dataset.h"
#include "server/dataset_registry.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_engine.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using uguide::ClientFrame;
using uguide::ClientOp;
using uguide::ServerFrameType;
using uguide::Session;

// ---------------------------------------------------------------------------
// Workload shape

/// Rows of the served recipe's Hospital table.
constexpr int kRows = 1200;
/// Question budget of every served session (the served recipe's default).
constexpr double kBudget = 64.0;
/// Sizes the fixed amount of measured work: a run measures about --seconds
/// × this many sessions (whole rotations). Set from the rate measured on a
/// 4-vCPU VM, so a run lasts about --seconds there.
constexpr double kSessionsPerS = 18.0;
/// Measured sessions of a traced run's fixed TCP phase and replays.
constexpr int kTraceSessions = 16;
/// Mutation batches the traced run's live probe applies.
constexpr int kProbeBatches = 10;
constexpr int kSetupRepeats = 3;
constexpr int kMaxBatchRows = 16;
constexpr double kBootTimeoutS = 120.0;
constexpr int kReadTimeoutS = 60;
/// Grace period for a SIGTERM drain before the daemon is killed.
constexpr double kStopTimeoutS = 20.0;
/// Journal durability of every served session (uguided --journal-fsync).
/// Journals must live inside the checkout, which may be on disk; batching
/// the fsync keeps the device's fsync latency, which no code change moves,
/// out of the per-question times while every record is still written.
constexpr uguide::JournalFsyncMode kJournalFsync =
    uguide::JournalFsyncMode::kBatch;

/// The strategies a served expert uses: every strategy except the oracle
/// baselines, which peek at the ground truth, and the uniform tuple sampler,
/// the naive baseline of its family. Seven strategies, an odd count, keep
/// the median of per-session samples inside one strategy's cluster instead
/// of in the gap between two.
const std::vector<std::string>& ServedStrategies() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const std::string& name : uguide::KnownStrategyNames()) {
      if (name.find("Oracle") == std::string::npos &&
          name != "Sampling-Uniform") {
        out.push_back(name);
      }
    }
    return out;
  }();
  return names;
}

/// Session `index`'s strategy: each consecutive block of |strategies|
/// sessions is a seeded permutation of the served strategies.
std::string StrategyFor(uint64_t seed, int index) {
  const std::vector<std::string>& names = ServedStrategies();
  const int n = static_cast<int>(names.size());
  uguide::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(index / n));
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  rng.Shuffle(order);
  return names[static_cast<size_t>(order[static_cast<size_t>(index % n)])];
}

/// The served recipe (src/server/dataset.h) at the workload's size. Its
/// data seed stays the recipe's own: the benchmark seed picks the session
/// order, so runs with different seeds do the same kind of work on the same
/// table (see README.md, "Seeds").
uguide::ServedDatasetOptions DatasetOptions() {
  uguide::ServedDatasetOptions options;
  options.rows = kRows;
  options.budget = kBudget;
  options.num_threads = 1;
  return options;
}

// ---------------------------------------------------------------------------
// Daemon process

/// One uguided child process. The destructor kills and reaps it if it is
/// still running, so no exit path leaves a daemon behind.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon and waits until its port file names the port it
  /// listens on. Returns the boot time in seconds, or a negative value.
  double Start(const std::string& binary, std::vector<std::string> args,
               const std::string& port_file, const std::string& log) {
    ::unlink(port_file.c_str());
    args.insert(args.begin(), binary);
    args.push_back("--port=0");
    args.push_back("--port-file=" + port_file);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t parent = ::getpid();
    const auto start = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Die with the driver, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    if (pid_ < 0) return -1.0;
    while (MsBetween(start, Clock::now()) < kBootTimeoutS * 1e3) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return -1.0;
      }
      std::ifstream in(port_file);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      // The daemon writes "<port>\n"; without the newline it is mid-write.
      if (!text.empty() && text.back() == '\n') {
        port_ = std::atoi(text.c_str());
        if (port_ > 0) return MsBetween(start, Clock::now()) / 1e3;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return -1.0;
  }

  /// SIGTERM (graceful drain) and reap; SIGKILL if the drain hangs. True
  /// iff the daemon exited 0 on its own.
  bool Stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (MsBetween(start, Clock::now()) > kStopTimeoutS * 1e3) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

// ---------------------------------------------------------------------------
// Transports: the same client logic runs over TCP or in-process.

/// Blocking line-oriented TCP client connection.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

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
    // A daemon that stops answering fails the read instead of hanging the
    // benchmark.
    timeval timeout{kReadTimeoutS, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return true;
  }

  bool WriteLine(const std::string& line) {
    std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
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
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends one client frame and returns its single reply frame. `op` names
  /// the frame's op for in-process timing; `parent`/`session` place the
  /// call in the trace.
  virtual bool Call(const std::string& op, const std::string& line,
                    std::string* reply, int parent, int64_t session) = 0;
};

class TcpTransport final : public Transport {
 public:
  bool Connect(int port) { return conn_.Connect(port); }
  bool Call(const std::string&, const std::string& line, std::string* reply,
            int, int64_t) override {
    return conn_.WriteLine(line) && conn_.ReadLine(reply);
  }

 private:
  Connection conn_;
};

/// Calls SessionManager::HandleLine directly; times each call per op and
/// records it as a "manager.handle" span.
class LocalTransport final : public Transport {
 public:
  LocalTransport(uguide::SessionManager* manager, Tracer* tracer)
      : manager_(manager), tracer_(tracer) {}

  bool Call(const std::string& op, const std::string& line,
            std::string* reply, int parent, int64_t session) override {
    const auto start = Clock::now();
    std::vector<std::string> frames = manager_->HandleLine(line);
    const auto end = Clock::now();
    tracer_->Record("manager.handle", start, end, parent, session);
    handle_ms[op].push_back(MsBetween(start, end));
    if (frames.size() != 1) return false;
    *reply = std::move(frames[0]);
    return true;
  }

  std::map<std::string, std::vector<double>> handle_ms;

 private:
  uguide::SessionManager* manager_;
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Closed-loop expert client

struct ServedSession {
  int index = 0;
  std::string strategy;
  double first_ms = -1.0;
  std::vector<double> answer_ms;
  double report_ms = -1.0;
  std::string report;
  std::string error;
  size_t report_frame_bytes = 0;
  // Traced runs only: the answered questions (the journal probe replays
  // them) and the protocol and expert probe timings.
  std::vector<uguide::JournalRecord> records;
  std::vector<double> parse_us, format_us;
};

/// One served session: open, answer every question with the simulated
/// expert over `knowledge`, until the report arrives.
ServedSession RunServedSession(Transport& transport, const Session& knowledge,
                               const std::string& strategy, double budget,
                               int index, Tracer& tracer) {
  ServedSession out;
  out.index = index;
  out.strategy = strategy;
  const uguide::SessionConfig& config = knowledge.config();
  uguide::SimulatedExpert expert(
      &knowledge.true_violations(), &knowledge.truth(),
      knowledge.dirty().NumAttributes(), knowledge.true_fds(),
      config.idk_rate, config.expert_seed, config.wrong_rate);

  ScopedSpan root(tracer, "bench.session", -1, index);
  const bool traced = tracer.enabled();
  ClientFrame frame;
  frame.op = ClientOp::kOpen;
  frame.id = "s" + std::to_string(index);
  frame.strategy = strategy;
  frame.budget = budget;
  frame.has_budget = true;
  std::string line = uguide::FormatClientFrame(frame);
  std::string op = "open";
  bool first = true;
  while (true) {
    if (traced) {
      const auto start = Clock::now();
      auto parsed = uguide::ParseClientFrame(line);
      tracer.Record("protocol.parse", start, Clock::now(), root.index(), index);
      out.parse_us.push_back(MsBetween(start, Clock::now()) * 1e3);
      if (!parsed.ok()) {
        out.error = "client frame does not parse: " + line;
        return out;
      }
    }
    std::string reply;
    const auto sent = Clock::now();
    if (!transport.Call(op, line, &reply, root.index(), index)) {
      out.error = "connection failed";
      return out;
    }
    const double rtt = MsBetween(sent, Clock::now());
    auto server = uguide::ParseServerFrame(reply);
    if (!server.ok()) {
      out.error = "bad server frame: " + reply;
      return out;
    }
    if (server->type == ServerFrameType::kReport) {
      out.report_ms = rtt;
      out.report = server->report;
      out.report_frame_bytes = reply.size() + 1;
      return out;
    }
    if (server->type != ServerFrameType::kQuestion) {
      out.error = "unexpected frame: " + reply;
      return out;
    }
    if (first) {
      out.first_ms = rtt;
      first = false;
    } else {
      out.answer_ms.push_back(rtt);
    }
    const uguide::SessionQuestion& question = server->question;
    if (traced) {
      const auto start = Clock::now();
      const std::string formatted =
          uguide::FormatQuestionFrame(frame.id, question);
      tracer.Record("protocol.format", start, Clock::now(), root.index(),
                    index);
      out.format_us.push_back(MsBetween(start, Clock::now()) * 1e3);
      if (formatted != reply) {
        out.error = "question frame does not round-trip: " + reply;
        return out;
      }
    }
    const auto asked = Clock::now();
    const uguide::Answer answer = AskExpert(expert, question);
    if (traced) {
      tracer.Record("oracle.answer", asked, Clock::now(), root.index(), index);
      uguide::JournalRecord record;
      record.kind = question.kind;
      record.cell = question.cell;
      record.row = question.row;
      record.fd = question.fd;
      record.answer = answer;
      record.cost = question.nominal_cost;
      out.records.push_back(record);
    }
    ClientFrame reply_frame;
    reply_frame.op = ClientOp::kAnswer;
    reply_frame.id = frame.id;
    reply_frame.seq = question.index;
    reply_frame.answer = answer;
    line = uguide::FormatClientFrame(reply_frame);
    op = "answer";
  }
}

// ---------------------------------------------------------------------------
// Live-layer probe input

/// Seeded mutation batches of 1..kMaxBatchRows ops that are all valid when
/// applied in order: updates and deletes target live rows, and no row is
/// touched twice in a batch. Every batch leads with exactly one append or
/// delete, which dirties every attribute, followed by updates; each batch
/// thus costs one full-scope recompute, so the probe's work barely depends
/// on the seed. Values are drawn from the base table's own columns, so
/// mutations move rows between existing equivalence classes as real edits
/// do.
class MutationPlan {
 public:
  MutationPlan(const uguide::Relation& base, uint64_t seed)
      : base_(base), rng_(seed ^ 0x5bd1e995ULL), next_row_(base.NumRows()) {
    for (uguide::TupleId r = 0; r < base.NumRows(); ++r) alive_.push_back(r);
  }

  uguide::MutationBatch Next() {
    uguide::MutationBatch batch;
    const int ops = static_cast<int>(rng_.NextInt(1, kMaxBatchRows));
    const int m = base_.NumAttributes();
    std::vector<uguide::TupleId> touched;
    if (rng_.NextBool(0.5)) {
      std::vector<std::string> values;
      const uguide::TupleId like = RandomBaseRow();
      for (int c = 0; c < m; ++c) values.push_back(base_.Value(like, c));
      const int perturb = static_cast<int>(rng_.NextBounded(m));
      values[static_cast<size_t>(perturb)] =
          base_.Value(RandomBaseRow(), perturb);
      batch.ops.push_back(uguide::Mutation::Append(std::move(values)));
      alive_.push_back(next_row_);
      touched.push_back(next_row_++);
    } else {
      const size_t slot = PickUntouched(touched);
      touched.push_back(alive_[slot]);
      batch.ops.push_back(uguide::Mutation::Delete(alive_[slot]));
      alive_[slot] = alive_.back();
      alive_.pop_back();
    }
    for (int i = 1; i < ops; ++i) {
      const uguide::TupleId row = alive_[PickUntouched(touched)];
      touched.push_back(row);
      const int col = static_cast<int>(rng_.NextBounded(m));
      batch.ops.push_back(uguide::Mutation::Update(
          row, col, base_.Value(RandomBaseRow(), col)));
    }
    return batch;
  }

 private:
  uguide::TupleId RandomBaseRow() {
    return static_cast<uguide::TupleId>(
        rng_.NextBounded(static_cast<uint64_t>(base_.NumRows())));
  }

  size_t PickUntouched(const std::vector<uguide::TupleId>& touched) {
    while (true) {
      const size_t slot = rng_.NextBounded(alive_.size());
      if (std::find(touched.begin(), touched.end(), alive_[slot]) ==
          touched.end()) {
        return slot;
      }
    }
  }

  const uguide::Relation& base_;
  uguide::Rng rng_;
  std::vector<uguide::TupleId> alive_;
  uguide::TupleId next_row_;
};

// ---------------------------------------------------------------------------
// Phases

/// Runs sessions [first, end) one after another over `transport`. A failed
/// session (lost connection, bad frame) ends the phase: the failure is
/// counted, not retried.
std::vector<ServedSession> RunSessions(Transport& transport,
                                       const Session& knowledge, uint64_t seed,
                                       int first, int end, Tracer& tracer) {
  std::vector<ServedSession> sessions;
  for (int index = first; index < end; ++index) {
    sessions.push_back(RunServedSession(transport, knowledge,
                                        StrategyFor(seed, index), kBudget,
                                        index, tracer));
    if (!sessions.back().error.empty()) break;
  }
  return sessions;
}

struct TcpPhase {
  std::vector<ServedSession> warmup;
  std::vector<ServedSession> measured;
  double elapsed_s = 0.0;
  double daemon_cpu_ms = 0.0;
  uguide::HealthInfo health;
  std::string error;
};

/// Warm-up (one rotation of the strategy mix), then the measured phase: a
/// fixed number of sessions.
TcpPhase RunTcpPhase(uint64_t seed, const Daemon& daemon,
                     const Session& knowledge, int sessions) {
  TcpPhase phase;
  TcpTransport transport;
  if (!transport.Connect(daemon.port())) {
    phase.error = "cannot connect to the daemon";
    return phase;
  }
  Tracer off(false);
  const int rotation = static_cast<int>(ServedStrategies().size());
  phase.warmup = RunSessions(transport, knowledge, seed, 0, rotation, off);

  const double cpu_start = ProcessCpuMs(daemon.pid());
  const auto start = Clock::now();
  phase.measured = RunSessions(transport, knowledge, seed, rotation,
                               rotation + sessions, off);
  phase.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  phase.daemon_cpu_ms = ProcessCpuMs(daemon.pid()) - cpu_start;

  ClientFrame health;
  health.op = ClientOp::kHealth;
  std::string reply;
  if (transport.Call("health", uguide::FormatClientFrame(health), &reply, -1,
                     -1)) {
    auto frame = uguide::ParseServerFrame(reply);
    if (frame.ok()) phase.health = frame->health;
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Verification

/// Expected report bytes per served strategy, computed in-process after the
/// served run: SessionStateMachine over the served recipe, driven by the
/// expert the client used. `driven` collects the reference sessions (a
/// traced run reports their strategy-layer timings).
std::map<std::string, std::string> ExpectedReports(
    const Session& knowledge, Tracer& tracer,
    std::vector<DrivenSession>* driven) {
  const uint64_t content_hash = uguide::RelationContentHash(knowledge.dirty());
  std::map<std::string, std::string> expected;
  for (const std::string& strategy : ServedStrategies()) {
    driven->push_back(DriveStepped(knowledge, strategy, kBudget, tracer, -1,
                                   content_hash));
    expected[strategy] = driven->back().report;
  }
  return expected;
}

/// The reports of served sessions, keyed by strategy, for CheckReports.
std::vector<ReportToCheck> ToCheck(
    std::initializer_list<const std::vector<ServedSession>*> lists) {
  std::vector<ReportToCheck> out;
  for (const std::vector<ServedSession>* list : lists) {
    for (const ServedSession& s : *list) {
      out.push_back(ReportToCheck{"session " + std::to_string(s.index) +
                                      " (" + s.strategy + ")",
                                  s.strategy, s.report, s.error});
    }
  }
  return out;
}

std::vector<std::string> DaemonArgs(const std::string& journal_dir) {
  const uguide::ServedDatasetOptions recipe = DatasetOptions();
  return {"--rows=" + std::to_string(recipe.rows),
          "--seed=" + std::to_string(recipe.seed),
          "--budget=" + std::to_string(kBudget), "--threads=1",
          "--journal-dir=" + journal_dir, "--journal-fsync=batch"};
}

std::string FreshDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path, ec);
  return path;
}

/// Boots the daemon kSetupRepeats times; all but the last are stopped.
/// Returns the boot times, or an empty vector on failure.
std::vector<double> BootDaemon(const RunOptions& options, Daemon* daemon) {
  std::vector<double> boots;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Daemon boot;
    const std::string journal_dir = FreshDir(options.out_dir + "/journals");
    const double s = (i + 1 == kSetupRepeats ? *daemon : boot)
                         .Start(options.uguided, DaemonArgs(journal_dir),
                                options.out_dir + "/port",
                                options.out_dir + "/uguided.log");
    if (s < 0) return {};
    boots.push_back(s);
    if (i + 1 < kSetupRepeats) boot.Stop();
  }
  return boots;
}

void RunServeMeasured(const RunOptions& options,
                      const std::map<std::string, uint64_t>& pinned,
                      RunResult* result) {
  Daemon daemon;
  const std::vector<double> boots = BootDaemon(options, &daemon);
  if (boots.empty()) {
    result->Invalidate("uguided failed to boot; see " + options.out_dir +
                       "/uguided.log");
    return;
  }
  // The client's expert knowledge: the same recipe, built in-process (not
  // timed; the daemon is idle meanwhile).
  Session knowledge = uguide::MakeServedDataset(DatasetOptions()).ValueOrDie();

  // A fixed amount of work sized from --seconds: whole rotations of the
  // strategy mix.
  const int rotation = static_cast<int>(ServedStrategies().size());
  const int rotations = std::max(
      1, static_cast<int>(options.seconds * kSessionsPerS / rotation + 0.5));
  TcpPhase phase =
      RunTcpPhase(options.seed, daemon, knowledge, rotations * rotation);
  const double peak_rss = ProcessPeakRssMb(daemon.pid());
  if (!daemon.Stop()) result->Fail("uguided did not exit cleanly");
  if (!phase.error.empty()) {
    result->Invalidate(phase.error);
    return;
  }

  Tracer off(false);
  std::vector<DrivenSession> driven;
  const std::map<std::string, std::string> reference =
      ExpectedReports(knowledge, off, &driven);
  WriteDigests(options.out_dir + "/report_digests.txt", options.workload,
               reference);
  const int64_t bad = CheckReports(ToCheck({&phase.warmup, &phase.measured}),
                                   reference, pinned, result);

  std::vector<double> first, answers, reports;
  for (const ServedSession& s : phase.measured) {
    if (s.first_ms >= 0) first.push_back(s.first_ms);
    answers.insert(answers.end(), s.answer_ms.begin(), s.answer_ms.end());
    if (s.report_ms >= 0) reports.push_back(s.report_ms);
  }
  if (!PercentileSupported(answers.size(), 99.0)) {
    result->Invalidate("too few answers for answer_ms_p99: " +
                       std::to_string(answers.size()));
    return;
  }
  const double n = static_cast<double>(phase.measured.size());
  result->Note("measured sessions=" + std::to_string(phase.measured.size()) +
               " (after " + std::to_string(phase.warmup.size()) +
               " warm-up) over " + std::to_string(phase.elapsed_s) + " s");
  AddSampleNote(result, "first_question_ms", first);
  AddSampleNote(result, "answer_ms", answers);
  AddSampleNote(result, "report_ms", reports);
  result->Note("health: admitted=" + std::to_string(phase.health.opened) +
               " refused=" + std::to_string(phase.health.refused));

  const double attempted = static_cast<double>(result->attempted);
  result->Add("setup_s", Percentile(boots, 50), "s");
  result->Add("sessions_per_s", n / phase.elapsed_s, "1/s");
  result->Add("cpu_ms_per_session", phase.daemon_cpu_ms / n, "ms");
  result->Add("first_question_ms_p50", Percentile(first, 50), "ms");
  result->Add("answer_ms_p50", Percentile(answers, 50), "ms");
  result->Add("answer_ms_p90", Percentile(answers, 90), "ms");
  result->Add("answer_ms_p99", Percentile(answers, 99), "ms");
  result->Add("report_ms_p50", Percentile(reports, 50), "ms");
  result->Add("ok_ops_frac", (attempted - static_cast<double>(bad)) / attempted,
              "frac");
  result->Add("peak_rss_mb", peak_rss, "MB");
}

// ---------------------------------------------------------------------------
// Traced run

struct LocalPass {
  std::vector<ServedSession> sessions;
  std::map<std::string, std::vector<double>> handle_ms;
  /// Client-observed time of all sessions (open to report, summed): the
  /// end-to-end number the tracing overhead is computed from.
  double session_ms = 0.0;
  int64_t journal_records = 0;
  int64_t journal_bytes = 0;
  uguide::HealthInfo health;
};

/// Replays the traced TCP phase's sessions in-process through a fresh
/// SessionManager over the registry's artifacts, set up as uguided sets up
/// its own.
LocalPass RunLocalPass(uint64_t seed, const uguide::DatasetArtifacts& artifacts,
                       const Session& knowledge, const std::string& journal_dir,
                       Tracer& tracer) {
  LocalPass pass;
  uguide::ThreadPool pool(1);
  uguide::LiveDataset live(&artifacts.session, artifacts.engine.get(),
                           &artifacts.graph, artifacts.key.content_hash,
                           &pool);
  uguide::SessionManagerOptions options;
  options.journal_dir = journal_dir;
  options.journal_fsync = kJournalFsync;
  options.pool = &pool;
  options.engine = artifacts.engine.get();
  options.graph = &artifacts.graph;
  options.live = &live;
  uguide::SessionManager manager(&artifacts.session, options);

  LocalTransport transport(&manager, &tracer);
  const int total = static_cast<int>(ServedStrategies().size()) + kTraceSessions;
  pass.sessions = RunSessions(transport, knowledge, seed, 0, total, tracer);
  for (const ServedSession& s : pass.sessions) {
    pass.session_ms += std::max(0.0, s.first_ms) + std::max(0.0, s.report_ms);
    for (double ms : s.answer_ms) pass.session_ms += ms;
  }
  pass.handle_ms = std::move(transport.handle_ms);

  ClientFrame health;
  health.op = ClientOp::kHealth;
  auto frames = manager.HandleLine(uguide::FormatClientFrame(health));
  if (frames.size() == 1) {
    auto frame = uguide::ParseServerFrame(frames[0]);
    if (frame.ok()) pass.health = frame->health;
  }
  for (const auto& entry : fs::directory_iterator(journal_dir)) {
    auto journal = uguide::LoadJournal(entry.path().string());
    if (journal.ok()) {
      pass.journal_records += static_cast<int64_t>(journal->records.size());
    }
  }
  pass.journal_bytes = DirectoryBytes(journal_dir);
  return pass;
}

/// Times JournalWriter::Append directly: every answered record of the
/// traced sessions, one journal per session, with the daemon's fsync policy.
std::vector<double> ProbeJournal(const std::vector<ServedSession>& sessions,
                                 double budget, const std::string& dir,
                                 Tracer& tracer) {
  std::vector<double> append_us;
  ScopedSpan root(tracer, "bench.probe", -1, -1);
  for (const ServedSession& s : sessions) {
    uguide::JournalHeader header;
    header.strategy_name = s.strategy;
    header.budget = budget;
    uguide::JournalWriterOptions writer_options;
    writer_options.fsync_mode = kJournalFsync;
    auto writer = uguide::JournalWriter::Open(
        dir + "/probe-" + std::to_string(s.index) + ".journal", header,
        writer_options);
    if (!writer.ok()) continue;
    for (const uguide::JournalRecord& record : s.records) {
      const auto start = Clock::now();
      uguide::Status status = writer->Append(record);
      tracer.Record("journal.append", start, Clock::now(), root.index(), -1);
      if (status.ok()) append_us.push_back(MsBetween(start, Clock::now()) * 1e3);
    }
    writer->Close().IgnoreError();
  }
  return append_us;
}

/// Times LiveDataset::Apply and the first LiveEpoch::graph() of each epoch
/// on a private live dataset fed kProbeBatches seeded batches, and returns
/// its counters. The served load does not mutate, so this probe is what
/// measures the live layer.
uguide::LiveDataset::Stats ProbeLive(const uguide::DatasetArtifacts& artifacts,
                                     uint64_t seed, Tracer& tracer,
                                     std::vector<double>* apply_ms,
                                     std::vector<double>* materialize_ms) {
  uguide::ThreadPool pool(1);
  uguide::LiveDataset live(&artifacts.session, artifacts.engine.get(),
                           &artifacts.graph, artifacts.key.content_hash,
                           &pool);
  MutationPlan plan(artifacts.session.dirty(), seed);
  ScopedSpan root(tracer, "bench.probe", -1, -1);
  for (int k = 0; k < kProbeBatches; ++k) {
    const uguide::MutationBatch batch = plan.Next();
    auto start = Clock::now();
    live.Apply(batch);
    tracer.Record("live.apply", start, Clock::now(), root.index(), -1);
    apply_ms->push_back(MsBetween(start, Clock::now()));
    start = Clock::now();
    live.Current()->graph();
    tracer.Record("live.materialize", start, Clock::now(), root.index(), -1);
    materialize_ms->push_back(MsBetween(start, Clock::now()));
  }
  return live.stats();
}

void RunServeTraced(const RunOptions& options,
                    const std::map<std::string, uint64_t>& pinned,
                    RunResult* result) {
  // 1. A short fixed TCP phase: the untraced round-trip times.
  Daemon daemon;
  if (BootDaemon(options, &daemon).empty()) {
    result->Invalidate("uguided failed to boot");
    return;
  }
  Session knowledge = uguide::MakeServedDataset(DatasetOptions()).ValueOrDie();
  TcpPhase tcp = RunTcpPhase(options.seed, daemon, knowledge, kTraceSessions);
  if (!daemon.Stop()) result->Fail("uguided did not exit cleanly");
  if (!tcp.error.empty()) {
    result->Invalidate(tcp.error);
    return;
  }

  // 2. The registry build in-process (set-up layers), traced.
  Tracer tracer(true);
  uguide::DatasetRegistry registry;
  const int setup_root = tracer.Begin("bench.setup", -1, -1);
  auto start = Clock::now();
  auto artifacts = registry.Open(DatasetOptions());
  const double open_ms = MsBetween(start, Clock::now());
  tracer.Record("registry.open", start, Clock::now(), setup_root, -1);
  if (!artifacts.ok()) {
    result->Invalidate("registry open failed: " +
                       artifacts.status().ToString());
    return;
  }
  registry.Open(DatasetOptions()).ValueOrDie();
  const uguide::DatasetRegistryStats registry_stats = registry.stats();
  start = Clock::now();
  uguide::ViolationEngine engine(&(*artifacts)->session.dirty());
  const uguide::ViolationGraph graph = uguide::ViolationGraph::Build(
      engine, (*artifacts)->session.candidates(), nullptr);
  const double graph_ms = MsBetween(start, Clock::now());
  tracer.Record("violations.graph_build", start, Clock::now(), setup_root, -1);
  tracer.End(setup_root);

  // 3. The same sessions in-process, untraced then traced.
  Tracer off(false);
  LocalPass plain =
      RunLocalPass(options.seed, **artifacts, knowledge,
                   FreshDir(options.out_dir + "/journals-plain"), off);
  LocalPass traced =
      RunLocalPass(options.seed, **artifacts, knowledge,
                   FreshDir(options.out_dir + "/journals-traced"), tracer);

  // 4. Direct probes of the journal and live layers.
  const std::vector<double> append_us = ProbeJournal(
      traced.sessions, kBudget,
      FreshDir(options.out_dir + "/journals-probe"), tracer);
  std::vector<double> apply_ms, materialize_ms;
  const uguide::LiveDataset::Stats live =
      ProbeLive(**artifacts, options.seed, tracer, &apply_ms, &materialize_ms);

  // 5. Check every report; the traced reference runs give the strategy
  // layer's timings.
  std::vector<DrivenSession> driven;
  const std::map<std::string, std::string> reference =
      ExpectedReports(knowledge, tracer, &driven);
  CheckReports(ToCheck({&tcp.warmup, &tcp.measured, &plain.sessions,
                        &traced.sessions}),
               reference, pinned, result);

  // Per-layer metrics.
  const Session& session = (*artifacts)->session;
  int64_t edges = 0;
  for (int f = 0; f < graph.NumFds(); ++f) {
    edges += static_cast<int64_t>(graph.CellsOfFd(f).size());
  }
  result->Add("candidate_gen.candidates",
              static_cast<double>(session.candidates().Size()), "count");
  result->Add("session.true_violations",
              static_cast<double>(session.true_violations().Size()), "count");
  result->Add("violations.graph_build_ms", graph_ms, "ms");
  result->Add("violations.graph_edges", static_cast<double>(edges), "count");
  result->Add("violations.graph_cells", graph.NumCells(), "count");
  result->Add("violations.graph_mb",
              static_cast<double>(graph.ApproxMemoryBytes()) / (1 << 20),
              "MB");
  AddStrategyLayerMetrics(driven, result);

  std::vector<double> parse_us, format_us, tcp_answers;
  double report_bytes = 0;
  for (const ServedSession& s : traced.sessions) {
    parse_us.insert(parse_us.end(), s.parse_us.begin(), s.parse_us.end());
    format_us.insert(format_us.end(), s.format_us.begin(), s.format_us.end());
    report_bytes += static_cast<double>(s.report_frame_bytes);
  }
  for (const ServedSession& s : tcp.measured) {
    tcp_answers.insert(tcp_answers.end(), s.answer_ms.begin(),
                       s.answer_ms.end());
  }
  result->Add("journal.append_us_p50", Percentile(append_us, 50), "us");
  result->Add("journal.records", static_cast<double>(traced.journal_records),
              "count");
  result->Add("journal.bytes", static_cast<double>(traced.journal_bytes),
              "bytes");
  result->Add("protocol.parse_us_p50", Percentile(parse_us, 50), "us");
  result->Add("protocol.format_us_p50", Percentile(format_us, 50), "us");
  result->Add("protocol.report_bytes", report_bytes, "bytes");
  for (const char* op : {"open", "answer"}) {
    result->Add(std::string("manager.handle_ms_p50.") + op,
                Percentile(traced.handle_ms[op], 50), "ms");
  }
  result->Add("reactor.rtt_minus_handle_ms_p50",
              Percentile(tcp_answers, 50) -
                  Percentile(plain.handle_ms["answer"], 50),
              "ms");
  const uguide::HealthInfo& h = traced.health;
  result->Add("admission.admitted", static_cast<double>(h.opened), "count");
  result->Add("admission.shed",
              static_cast<double>(h.refused + h.rate_limited +
                                  h.deadline_shed + h.brownout_refused +
                                  h.brownout_shed),
              "count");
  result->Add("registry.open_ms", open_ms, "ms");
  result->Add("registry.builds", static_cast<double>(registry_stats.builds),
              "count");
  result->Add("registry.hits", static_cast<double>(registry_stats.hits),
              "count");
  const double fds_total =
      static_cast<double>(live.fds_recomputed + live.fds_skipped);
  result->Add("live.apply_ms_p50", Percentile(apply_ms, 50), "ms");
  result->Add("live.materialize_ms_p50", Percentile(materialize_ms, 50), "ms");
  result->Add("live.fds_recomputed", static_cast<double>(live.fds_recomputed),
              "count");
  result->Add("live.fds_skipped", static_cast<double>(live.fds_skipped),
              "count");
  result->Add("live.fds_skipped_frac",
              fds_total > 0 ? static_cast<double>(live.fds_skipped) / fds_total
                            : 0.0,
              "frac");
  result->Add("live.ops_refused", static_cast<double>(live.ops_refused),
              "count");

  AddTraceMetrics(tracer.spans(), plain.session_ms, traced.session_ms, result);
  tracer.WriteJsonLines(options.out_dir + "/spans.jsonl");
}

}  // namespace

void RunServeMix(const RunOptions& options, RunResult* result) {
  std::map<std::string, uint64_t> pinned;
  if (!LoadPins(options, &pinned, result)) return;
  if (options.trace) {
    RunServeTraced(options, pinned, result);
  } else {
    RunServeMeasured(options, pinned, result);
  }
}

}  // namespace perfbench
