// uguide_loadgen — replay client for uguided: opens concurrent sessions
// over real sockets, answers every question with the same simulated-expert
// stack an in-process run uses, and checks that every served report is
// byte-identical to the in-process reference run.
//
//   uguide_loadgen --port=P [--sessions=S] [--concurrency=C]
//                  [--strategy=NAME|all] [--budget=B] [--id-prefix=X]
//                  [--rows=R] [--error-rate=E] [--seed=S] [--idk-rate=I]
//                  [--no-verify] [--allow-refused] [--check-journals=DIR]
//                  [--chaos] [--chaos-seed=S] [--restart-grace-ms=T]
//                  [--mutate-rate=M] [--mutate-seed=S]
//                  [--reply-timeout-s=T]
//
// The dataset flags must match the daemon's — both sides rebuild the same
// dataset (src/server/dataset.h) and the reports can only be byte-equal if
// they agree. Exit status: 0 iff every session finished with a verified
// report (refusals tolerated only under --allow-refused).
//
// Refusal errors carrying retry_after_ms (code overloaded / rate_limited)
// are always retried after the hinted backoff, so an overloaded daemon
// slows the run down rather than failing it.
//
// --chaos turns each session into a deterministic adversary (per-session
// Rng off --chaos-seed): garbage frames, half-line writes followed by
// reconnects, mid-question disconnects resynced with op=next, deliberately
// slow reads, and close-then-resume storms (the latter only when
// --check-journals names the daemon's journal dir). The invariant asserted
// end-to-end: every refusal carries a machine-readable code, and every
// finished session's report matches the in-process reference byte-for-byte
// (modulo the questions_replayed counter, which resume legitimately
// changes).
//
// --restart-grace-ms=T makes the run restart-aware (the kill/restart chaos
// gate): connection-refused is tolerated for up to T ms of reconnect
// backoff — the window a daemon needs to come back on the same port — and
// sessions the restarted daemon no longer knows are reopened from their
// journals. Sessions the daemon reports as journal_corrupt count as
// `quarantined`, an explicit verdict distinct from both ok and failed:
// the gate's pass condition is that every admitted session ends as
// ok/refused/quarantined, never silently lost. With --check-journals set,
// every delivered report is additionally cross-checked against its
// journal (record count == questions_asked, durable end marker present).
//
// --mutate-rate=M makes each session, with probability M, first apply a
// small randomized op=mutate batch (appends/updates/deletes drawn from
// --mutate-seed), advancing the daemon's live data. Reports produced
// against a mutated epoch stamp data_version>0 and are exempt from the
// byte-verify (the in-process reference runs on the base data); reports
// stamping data_version=0 still byte-verify as usual. The exit summary
// reports mutations applied/refused.
//
// --reply-timeout-s=T (default 60) bounds every wait for the daemon: a
// read that gets no byte for T seconds fails its session, prints the op
// it was waiting on and the session id, stops the run from starting more
// sessions, and makes the exit status non-zero.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/uguide.h"
#include "server/dataset.h"
#include "server/protocol.h"

#include "flag_parse.h"

using namespace uguide;

namespace {

struct Args {
  int port = 0;
  int sessions = 16;
  int concurrency = 4;
  std::string strategy = "FDQ-BMC";
  double budget = 0.0;  // 0 = dataset default
  std::string id_prefix = "lg";
  bool verify = true;
  bool allow_refused = false;
  /// When set, every per-session journal the daemon wrote under this
  /// directory must load cleanly after the run (zero-corruption check).
  std::string check_journals;
  bool chaos = false;
  uint64_t chaos_seed = 1234;
  /// Reconnect-backoff window for daemon restarts (0 = not restart-aware:
  /// ~2s of reconnect attempts, initial connect must succeed at once).
  double restart_grace_ms = 0.0;
  /// Probability that a session opens with a randomized op=mutate batch.
  double mutate_rate = 0.0;
  uint64_t mutate_seed = 77;
  /// Longest wait for a byte of the daemon's reply before the session
  /// fails as stalled.
  double reply_timeout_s = 60.0;
  ServedDatasetOptions dataset;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: uguide_loadgen --port=P [--sessions=S] [--concurrency=C]\n"
      "                      [--strategy=NAME|all] [--budget=B]\n"
      "                      [--id-prefix=X] [--rows=R] [--error-rate=E]\n"
      "                      [--seed=S] [--idk-rate=I] [--no-verify]\n"
      "                      [--allow-refused] [--check-journals=DIR]\n"
      "                      [--chaos] [--chaos-seed=S]\n"
      "                      [--restart-grace-ms=T]\n"
      "                      [--mutate-rate=M] [--mutate-seed=S]\n"
      "                      [--reply-timeout-s=T]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  const FlagParser flags("uguide_loadgen");
  for (int i = 1; i < argc; ++i) {
    const auto [flag, value] = FlagParser::Split(argv[i]);
    if (flag == "--port") {
      if (!flags.Int("--port", value, 1, &args->port)) return false;
    } else if (flag == "--sessions") {
      if (!flags.Int("--sessions", value, 1, &args->sessions)) return false;
    } else if (flag == "--concurrency") {
      if (!flags.Int("--concurrency", value, 1, &args->concurrency)) {
        return false;
      }
    } else if (flag == "--strategy") {
      args->strategy = value;
    } else if (flag == "--budget") {
      if (!flags.Double("--budget", value, 0.0, FlagParser::kMax,
                        &args->budget)) {
        return false;
      }
    } else if (flag == "--id-prefix") {
      args->id_prefix = value;
    } else if (flag == "--no-verify") {
      args->verify = false;
    } else if (flag == "--allow-refused") {
      args->allow_refused = true;
    } else if (flag == "--check-journals") {
      args->check_journals = value;
    } else if (flag == "--chaos") {
      args->chaos = true;
    } else if (flag == "--chaos-seed") {
      if (!flags.U64("--chaos-seed", value, &args->chaos_seed)) return false;
    } else if (flag == "--restart-grace-ms") {
      if (!flags.Double("--restart-grace-ms", value, 0.0, FlagParser::kMax,
                        &args->restart_grace_ms)) {
        return false;
      }
    } else if (flag == "--mutate-rate") {
      if (!flags.Double("--mutate-rate", value, 0.0, 1.0, &args->mutate_rate)) {
        return false;
      }
    } else if (flag == "--mutate-seed") {
      if (!flags.U64("--mutate-seed", value, &args->mutate_seed)) return false;
    } else if (flag == "--reply-timeout-s") {
      if (!flags.Double("--reply-timeout-s", value, 0.001, 1e6,
                        &args->reply_timeout_s)) {
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
    } else {
      std::fprintf(stderr, "uguide_loadgen: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->port == 0) {
    std::fprintf(stderr, "uguide_loadgen: --port is required\n");
    return false;
  }
  return true;
}

/// Blocking line-oriented client connection.
class Connection {
 public:
  /// Every read waits at most `reply_timeout_s` seconds for a byte.
  explicit Connection(double reply_timeout_s)
      : reply_timeout_s_(reply_timeout_s) {}

  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Drops the socket and any half-read buffer (chaos reconnects).
  void Reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  bool Connect(int port) {
    Reset();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout;
    timeout.tv_sec = static_cast<time_t>(reply_timeout_s_);
    timeout.tv_usec = static_cast<suseconds_t>(
        (reply_timeout_s_ - static_cast<double>(timeout.tv_sec)) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return true;
  }

  bool WriteLine(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    return WriteRaw(framed);
  }

  /// Sends bytes exactly as given — chaos half-line frames included.
  bool WriteRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// False when the connection closed, failed or timed out (TimedOut).
  bool ReadLine(std::string* line) {
    timed_out_ = false;
    while (true) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        timed_out_ = true;
        return false;
      }
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the last ReadLine failed because no byte came within the
  /// reply timeout.
  bool TimedOut() const { return timed_out_; }

 private:
  const double reply_timeout_s_;
  int fd_ = -1;
  std::string buffer_;
  bool timed_out_ = false;
};

struct SharedState {
  const Session* session = nullptr;
  const Args* args = nullptr;
  std::vector<std::string> strategies;  // per-session rotation

  std::mutex reference_mu;
  std::map<std::string, std::string> reference_reports;

  std::atomic<int> next_session{0};
  std::atomic<int> ok{0};
  std::atomic<int> mismatched{0};
  std::atomic<int> refused{0};
  std::atomic<int> failed{0};
  std::atomic<int> retried{0};  ///< Backoffs honored from retry_after_ms.
  /// Set once a reply timed out: workers start no further session.
  std::atomic<bool> stalled{false};
  /// Sessions the daemon ended with journal_corrupt: an explicit verdict
  /// (the damaged journal was moved aside), not a silent loss.
  std::atomic<int> quarantined{0};
  /// Live-data mutation tallies (op=mutate acks under --mutate-rate).
  std::atomic<int64_t> mutations_applied{0};
  std::atomic<int64_t> mutations_refused{0};

  std::mutex rtt_mu;
  std::vector<double> rtt_ms;
};

/// The in-process reference report for `strategy` under the shared budget,
/// serialized. Computed once per strategy (strategies are stateless and
/// deterministic, so every session of a strategy yields the same bytes).
const std::string* ReferenceReport(SharedState* state,
                                   const std::string& strategy_name) {
  std::lock_guard<std::mutex> lock(state->reference_mu);
  auto it = state->reference_reports.find(strategy_name);
  if (it != state->reference_reports.end()) return &it->second;
  Result<std::unique_ptr<Strategy>> strategy =
      MakeStrategyByName(strategy_name);
  if (!strategy.ok()) return nullptr;
  const double budget = state->args->budget > 0.0
                            ? state->args->budget
                            : state->session->config().budget;
  Result<SessionReport> report =
      state->session->Run(**strategy, budget, SessionRunOptions{});
  if (!report.ok()) return nullptr;
  auto inserted = state->reference_reports.emplace(
      strategy_name, SerializeSessionReport(*report));
  return &inserted.first->second;
}

/// Strips the questions_replayed=N line: a resumed session replays its
/// journal, so the counter legitimately differs from the reference run
/// while every other report byte must still match.
std::string WithoutReplayCount(const std::string& report) {
  std::string out;
  out.reserve(report.size());
  size_t pos = 0;
  while (pos < report.size()) {
    size_t nl = report.find('\n', pos);
    if (nl == std::string::npos) nl = report.size();
    const std::string_view line(report.data() + pos, nl - pos);
    if (line.rfind("questions_replayed=", 0) != 0) {
      out.append(line);
      out.push_back('\n');
    }
    pos = nl + 1;
  }
  return out;
}

/// Extracts the integer value of a `key=N` line from a serialized report;
/// -1 if the line is absent.
int ReportCounter(const std::string& report, std::string_view key) {
  size_t pos = 0;
  while (pos < report.size()) {
    size_t nl = report.find('\n', pos);
    if (nl == std::string::npos) nl = report.size();
    const std::string_view line(report.data() + pos, nl - pos);
    if (line.size() > key.size() + 1 &&
        line.substr(0, key.size()) == key && line[key.size()] == '=') {
      return std::atoi(std::string(line.substr(key.size() + 1)).c_str());
    }
    pos = nl + 1;
  }
  return -1;
}

/// Cross-checks a delivered report against the journal the daemon kept for
/// the session: every asked question must be durable (records ==
/// questions_asked) and the end marker must agree with the report. Returns
/// an empty string on success, the mismatch description otherwise.
std::string CheckReportAgainstJournal(const Args& args,
                                      const std::string& session_id,
                                      const std::string& report) {
  const std::string path =
      args.check_journals + "/" + session_id + ".journal";
  Result<LoadedJournal> journal = LoadJournal(path);
  if (!journal.ok()) {
    return "journal unreadable after report: " +
           journal.status().ToString();
  }
  const int asked = ReportCounter(report, "questions_asked");
  const int replayed = ReportCounter(report, "questions_replayed");
  if (asked < 0) return "report lacks questions_asked";
  if (static_cast<int>(journal->records.size()) != asked) {
    return "journal holds " + std::to_string(journal->records.size()) +
           " records but report says questions_asked=" +
           std::to_string(asked);
  }
  if (replayed > asked) {
    return "report claims questions_replayed=" + std::to_string(replayed) +
           " > questions_asked=" + std::to_string(asked);
  }
  if (!journal->finished) {
    return "report delivered but journal lacks a durable end marker";
  }
  if (journal->finished_questions != asked) {
    return "end marker says " + std::to_string(journal->finished_questions) +
           " questions, report says " + std::to_string(asked);
  }
  return std::string();
}

/// The op of a formatted client frame, for diagnostics.
std::string OpOf(std::string_view frame) {
  constexpr std::string_view kKey = "\"op\":\"";
  const size_t at = frame.find(kKey);
  if (at == std::string_view::npos) return "?";
  const size_t begin = at + kKey.size();
  return std::string(frame.substr(begin, frame.find('"', begin) - begin));
}

/// Fails the session whose reply to `op` timed out and stops the run.
void FailStalled(SharedState* state, const std::string& op,
                 const std::string& session_id) {
  std::fprintf(stderr,
               "uguide_loadgen: no reply within %gs to op=%s for session "
               "%s\n",
               state->args->reply_timeout_s, op.c_str(), session_id.c_str());
  state->failed.fetch_add(1);
  state->stalled.store(true);
}

/// Runs one served session over `conn`. Returns false only on
/// unrecoverable connection failure (protocol/verification failures are
/// counted in state). Retries refusals that carry retry_after_ms; in
/// --chaos mode additionally injects deterministic client misbehavior and
/// recovers from its own sabotage via reconnect + op=next / resume.
bool RunOneSession(SharedState* state, Connection* conn, int index) {
  const Session& session = *state->session;
  const Args& args = *state->args;
  const std::string& strategy_name =
      state->strategies[static_cast<size_t>(index) %
                        state->strategies.size()];
  const SessionConfig& config = session.config();

  // The same expert stack Session::Run builds in-process: determinism of
  // the served run is exactly the determinism of this stack.
  SimulatedExpert expert(&session.true_violations(), &session.truth(),
                         session.dirty().NumAttributes(), session.true_fds(),
                         config.idk_rate, config.expert_seed,
                         config.wrong_rate);
  MajorityVoteExpert voting(&expert, std::max(1, config.expert_votes));
  Expert* head = config.expert_votes > 1 ? static_cast<Expert*>(&voting)
                                         : static_cast<Expert*>(&expert);

  ClientFrame open;
  open.op = ClientOp::kOpen;
  open.id = args.id_prefix + "-" + std::to_string(index);
  open.strategy = strategy_name;
  if (args.budget > 0.0) {
    open.budget = args.budget;
    open.has_budget = true;
  }

  // Chaos plan, fixed per session so reruns are reproducible.
  Rng rng(args.chaos_seed ^
          (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(index + 1)));
  const bool chaos = args.chaos;
  // Resume storms need the daemon to journal; --check-journals names the
  // journal dir, so its presence doubles as the capability signal.
  const bool can_resume = chaos && !args.check_journals.empty();
  const bool send_garbage = chaos && rng.NextBool(0.2);
  const bool send_half_line = chaos && rng.NextBool(0.15);
  const bool slow_reader = chaos && rng.NextBool(0.1);
  const double disconnect_p = chaos ? 0.1 : 0.0;
  const double close_reopen_p = can_resume ? 0.05 : 0.0;
  bool close_reopen_done = !can_resume;
  int slow_reads_left = slow_reader ? 24 : 0;

  // Under --restart-grace-ms the backoff window stretches to cover a
  // daemon kill/restart cycle; connection-refused inside it is expected.
  const int reconnect_attempts =
      std::max(100, static_cast<int>(args.restart_grace_ms / 20.0) + 1);
  auto reconnect = [&]() -> bool {
    for (int attempt = 0; attempt < reconnect_attempts; ++attempt) {
      if (conn->Connect(args.port)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  };

  if (send_garbage) {
    // A complete line of non-protocol bytes must bounce as a structured
    // bad_frame error and leave the connection usable.
    std::string line;
    if (!conn->WriteLine("{\"op\":[not json") || !conn->ReadLine(&line)) {
      if (conn->TimedOut()) {
        FailStalled(state, "(garbage line)", open.id);
        return true;
      }
      if (!reconnect()) return false;
    } else {
      Result<ServerFrame> frame = ParseServerFrame(line);
      if (!frame.ok() || frame->type != ServerFrameType::kError ||
          frame->error_code != error_code::kBadFrame) {
        std::fprintf(stderr,
                     "uguide_loadgen: garbage line not refused as "
                     "bad_frame for %s\n",
                     open.id.c_str());
        state->failed.fetch_add(1);
        return true;
      }
    }
  }
  if (send_half_line) {
    // Half a frame, no newline, then vanish: the daemon must simply drop
    // the partial line (or reap us) without wedging the session slot.
    conn->WriteRaw("{\"op\":\"open\",\"id\":\"");
    if (!reconnect()) return false;
  }

  std::vector<double> rtts;
  int retries = 0;
  bool opened = false;  // An open was acked (question/report seen).
  std::string to_send = FormatClientFrame(open);

  // Mutation mode: with probability --mutate-rate this session leads with
  // a small randomized op=mutate batch, advancing the live data every
  // later open serves against. The open is sent after the mutated ack.
  if (args.mutate_rate > 0.0) {
    Rng mrng(args.mutate_seed ^
             (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(index + 1)));
    if (mrng.NextBool(args.mutate_rate)) {
      ClientFrame mutate;
      mutate.op = ClientOp::kMutate;
      mutate.id = open.id;
      const int m = session.dirty().NumAttributes();
      const uint64_t base_rows =
          static_cast<uint64_t>(session.dirty().NumRows());
      const int ops = static_cast<int>(mrng.NextInt(1, 3));
      for (int i = 0; i < ops; ++i) {
        const std::string tag =
            std::to_string(index) + "-" + std::to_string(i);
        switch (mrng.NextBounded(3)) {
          case 0: {
            std::vector<std::string> values;
            for (int c = 0; c < m; ++c) {
              values.push_back("live-" + tag + "-" + std::to_string(c));
            }
            mutate.mutations.push_back(Mutation::Append(std::move(values)));
            break;
          }
          case 1:
            mutate.mutations.push_back(Mutation::Update(
                static_cast<TupleId>(mrng.NextBounded(base_rows)),
                static_cast<int>(mrng.NextBounded(
                    static_cast<uint64_t>(m))),
                "live-u-" + tag));
            break;
          default:
            // Deletes of an already-tombstoned row are refused, which the
            // summary surfaces — that is the point, not a failure.
            mutate.mutations.push_back(Mutation::Delete(
                static_cast<TupleId>(mrng.NextBounded(base_rows))));
            break;
        }
      }
      to_send = FormatClientFrame(mutate);
    }
  }

  auto backoff = [&](int retry_after_ms) {
    state->retried.fetch_add(1);
    ++retries;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::clamp(retry_after_ms, 1, 1000)));
  };
  auto resync_frame = [&]() -> std::string {
    if (opened) {
      ClientFrame next;
      next.op = ClientOp::kNext;
      next.id = open.id;
      return FormatClientFrame(next);
    }
    return FormatClientFrame(open);
  };

  constexpr int kMaxRetries = 200;
  auto sent_at = std::chrono::steady_clock::now();
  std::string sent_op;
  while (true) {
    if (!to_send.empty()) {
      sent_at = std::chrono::steady_clock::now();
      sent_op = OpOf(to_send);
      if (!conn->WriteLine(to_send)) {
        if (!chaos || !reconnect()) return false;
        to_send = resync_frame();
        continue;
      }
      to_send.clear();
    }

    if (slow_reads_left > 0) {
      // A deliberately sluggish reader: the daemon's replies sit unread
      // for a beat, exercising its pending-output accounting.
      --slow_reads_left;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string line;
    if (!conn->ReadLine(&line)) {
      if (conn->TimedOut()) {
        FailStalled(state, sent_op, open.id);
        return true;
      }
      if (!chaos || !reconnect()) return false;
      to_send = resync_frame();
      continue;
    }
    rtts.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - sent_at)
                       .count());

    Result<ServerFrame> frame = ParseServerFrame(line);
    if (!frame.ok()) {
      std::fprintf(stderr, "uguide_loadgen: bad server frame: %s\n",
                   frame.status().ToString().c_str());
      state->failed.fetch_add(1);
      return true;
    }
    switch (frame->type) {
      case ServerFrameType::kQuestion: {
        opened = true;
        open.resume = true;  // any later reopen must pick up the journal
        if (!close_reopen_done && rng.NextBool(close_reopen_p)) {
          // Close mid-run, then reopen with resume: the journal must
          // carry every answer across the abandon.
          close_reopen_done = true;
          ClientFrame close;
          close.op = ClientOp::kClose;
          close.id = open.id;
          to_send = FormatClientFrame(close);
          break;
        }
        if (rng.NextBool(disconnect_p)) {
          // Vanish mid-question; the reconnect resyncs with op=next and
          // must get the same question redelivered.
          if (!reconnect()) return false;
          to_send = resync_frame();
          break;
        }
        const SessionQuestion& q = frame->question;
        ClientFrame answer;
        answer.op = ClientOp::kAnswer;
        answer.id = open.id;
        answer.seq = q.index;
        answer.answer = AskQuestion(*head, q);
        to_send = FormatClientFrame(answer);
        break;
      }
      case ServerFrameType::kMutated: {
        state->mutations_applied.fetch_add(frame->applied);
        state->mutations_refused.fetch_add(frame->refused);
        to_send = FormatClientFrame(open);
        break;
      }
      case ServerFrameType::kReport: {
        // A report stamped with a live data version ran against mutated
        // data; the in-process reference runs on the base, so the byte
        // check would be comparing different datasets. data_version=0
        // reports (epoch 0) still byte-verify.
        const int live_version = ReportCounter(frame->report, "data_version");
        if (state->args->verify && live_version <= 0) {
          const std::string* expected =
              ReferenceReport(state, strategy_name);
          const bool matches =
              expected != nullptr &&
              (*expected == frame->report ||
               (chaos && WithoutReplayCount(*expected) ==
                             WithoutReplayCount(frame->report)));
          if (!matches) {
            std::fprintf(stderr,
                         "uguide_loadgen: report mismatch for %s (%s)\n",
                         open.id.c_str(), strategy_name.c_str());
            state->mismatched.fetch_add(1);
            {
              std::lock_guard<std::mutex> lock(state->rtt_mu);
              state->rtt_ms.insert(state->rtt_ms.end(), rtts.begin(),
                                   rtts.end());
            }
            return true;
          }
        }
        if (!args.check_journals.empty()) {
          const std::string why =
              CheckReportAgainstJournal(args, open.id, frame->report);
          if (!why.empty()) {
            std::fprintf(stderr,
                         "uguide_loadgen: journal/report mismatch for "
                         "%s: %s\n",
                         open.id.c_str(), why.c_str());
            state->failed.fetch_add(1);
            return true;
          }
        }
        state->ok.fetch_add(1);
        std::lock_guard<std::mutex> lock(state->rtt_mu);
        state->rtt_ms.insert(state->rtt_ms.end(), rtts.begin(), rtts.end());
        return true;
      }
      case ServerFrameType::kError: {
        const StatusCode code = static_cast<StatusCode>(frame->code);
        const bool backoff_hinted =
            frame->retry_after_ms >= 0 &&
            (frame->error_code == error_code::kOverloaded ||
             frame->error_code == error_code::kRateLimited);
        if (backoff_hinted && retries < kMaxRetries) {
          backoff(frame->retry_after_ms);
          to_send = resync_frame();
          break;
        }
        if (code == StatusCode::kAlreadyExists && !opened) {
          // Our open landed but its ack was lost to a chaos disconnect;
          // the session is live — resync instead of failing.
          opened = true;
          to_send = resync_frame();
          break;
        }
        if (frame->error_code == error_code::kVersionMismatch) {
          // Terminal and structured: the epoch this journal pinned is no
          // longer served, so the resume is abandoned — an explicit
          // refusal, not a lost session.
          state->refused.fetch_add(1);
          std::lock_guard<std::mutex> lock(state->rtt_mu);
          state->rtt_ms.insert(state->rtt_ms.end(), rtts.begin(),
                               rtts.end());
          return true;
        }
        if (frame->error_code == error_code::kJournalCorrupt) {
          // The daemon found bit-rot and moved the journal aside. That is
          // a terminal but *explicit* outcome: the session was not
          // silently lost, it was quarantined for triage.
          state->quarantined.fetch_add(1);
          std::lock_guard<std::mutex> lock(state->rtt_mu);
          state->rtt_ms.insert(state->rtt_ms.end(), rtts.begin(),
                               rtts.end());
          return true;
        }
        if (frame->error_code == error_code::kStorageFailed &&
            can_resume && retries < kMaxRetries) {
          // The session's journal writer is poisoned (failed write or
          // fsync). The durable prefix is intact, so the documented
          // client move is: close, then reopen with resume — a fresh
          // writer replays everything up to the failure.
          ++retries;
          ClientFrame close;
          close.op = ClientOp::kClose;
          close.id = open.id;
          open.resume = true;
          to_send = FormatClientFrame(close);
          break;
        }
        if (chaos && code == StatusCode::kNotFound && can_resume &&
            retries < kMaxRetries) {
          // Evicted (or closed by our own chaos move) between frames:
          // reopen from the journal.
          ++retries;
          open.resume = true;
          opened = false;
          to_send = FormatClientFrame(open);
          break;
        }
        const bool refusal = code == StatusCode::kResourceExhausted ||
                             code == StatusCode::kUnavailable;
        if (chaos && refusal && frame->error_code.empty()) {
          // The whole point of structured refusals: a shedding daemon
          // must say why. An unlabeled refusal is a bug.
          std::fprintf(stderr,
                       "uguide_loadgen: refusal without code for %s: %s\n",
                       open.id.c_str(), frame->message.c_str());
          state->failed.fetch_add(1);
          return true;
        }
        if (refusal && args.allow_refused) {
          state->refused.fetch_add(1);
        } else {
          std::fprintf(stderr, "uguide_loadgen: server error for %s: %s\n",
                       open.id.c_str(), frame->message.c_str());
          state->failed.fetch_add(1);
        }
        return true;
      }
      case ServerFrameType::kClosed: {
        // Ack of our deliberate close: reopen from the journal.
        open.resume = true;
        opened = false;
        to_send = FormatClientFrame(open);
        break;
      }
      case ServerFrameType::kPong:
      case ServerFrameType::kHealth:
        // Unexpected here but harmless; keep reading.
        break;
    }
  }
}

void Worker(SharedState* state) {
  const Args& args = *state->args;
  Connection conn(args.reply_timeout_s);
  // With --restart-grace-ms the first connect may land in a restart
  // window; keep knocking for the grace period instead of giving up.
  const int connect_attempts =
      std::max(1, static_cast<int>(args.restart_grace_ms / 20.0) + 1);
  auto connect = [&]() -> bool {
    for (int attempt = 0; attempt < connect_attempts; ++attempt) {
      if (conn.Connect(args.port)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  };
  if (!connect()) {
    std::fprintf(stderr, "uguide_loadgen: cannot connect to port %d\n",
                 args.port);
    state->failed.fetch_add(1);
    return;
  }
  while (!state->stalled.load()) {
    const int index = state->next_session.fetch_add(1);
    if (index >= state->args->sessions) return;
    if (!RunOneSession(state, &conn, index)) {
      // Connection died; reconnect and keep draining the work queue.
      state->failed.fetch_add(1);
      if (!connect()) return;
    }
  }
}

/// Loads every journal the daemon wrote for this run's session ids and
/// fails on the first corrupt one. A missing journal is fine (refused
/// sessions never open one); a present-but-unparsable journal is the bug
/// this check exists to catch.
int CheckJournals(const Args& args) {
  int checked = 0;
  for (int index = 0; index < args.sessions; ++index) {
    const std::string path = args.check_journals + "/" + args.id_prefix +
                             "-" + std::to_string(index) + ".journal";
    if (::access(path.c_str(), F_OK) != 0) continue;
    Result<LoadedJournal> journal = LoadJournal(path);
    if (!journal.ok()) {
      std::fprintf(stderr, "uguide_loadgen: corrupt journal %s: %s\n",
                   path.c_str(), journal.status().ToString().c_str());
      return -1;
    }
    ++checked;
  }
  return checked;
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(values->size() - 1) / 100.0);
  return (*values)[index];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }

  Result<Session> session = MakeServedDataset(args.dataset);
  if (!session.ok()) {
    std::fprintf(stderr, "uguide_loadgen: dataset: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  SharedState state;
  state.session = &*session;
  state.args = &args;
  if (args.strategy == "all") {
    state.strategies = KnownStrategyNames();
  } else {
    state.strategies = {args.strategy};
  }

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int i = 0; i < args.concurrency; ++i) {
    workers.emplace_back(Worker, &state);
  }
  for (std::thread& t : workers) t.join();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count();

  const int ok = state.ok.load();
  const int mismatched = state.mismatched.load();
  const int refused = state.refused.load();
  const int failed = state.failed.load();
  const int retried = state.retried.load();
  const int quarantined = state.quarantined.load();
  const double p50 = Percentile(&state.rtt_ms, 50.0);
  const double p99 = Percentile(&state.rtt_ms, 99.0);
  std::printf(
      "uguide_loadgen: ok=%d mismatched=%d refused=%d failed=%d "
      "quarantined=%d retried=%d answers=%zu elapsed=%.2fs "
      "rtt_p50=%.3fms rtt_p99=%.3fms\n",
      ok, mismatched, refused, failed, quarantined, retried,
      state.rtt_ms.size(), elapsed_s, p50, p99);
  if (args.mutate_rate > 0.0) {
    std::printf("uguide_loadgen: mutations applied=%lld refused=%lld\n",
                static_cast<long long>(state.mutations_applied.load()),
                static_cast<long long>(state.mutations_refused.load()));
  }

  if (!args.check_journals.empty()) {
    const int checked = CheckJournals(args);
    if (checked < 0) return 1;
    std::printf("uguide_loadgen: journals checked=%d corrupt=0\n", checked);
  }

  if (mismatched > 0 || failed > 0) return 1;
  // Every session must end in an explicit verdict — delivered, refused
  // with a code, or quarantined with its journal preserved for triage.
  // Anything short of that is a silently lost session.
  if (ok + refused + quarantined < args.sessions) return 1;
  return 0;
}
