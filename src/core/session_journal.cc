#include "core/session_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/crc32c.h"
#include "common/fault_injection.h"

namespace uguide {

namespace {

const char* KindTag(QuestionKind kind) {
  switch (kind) {
    case QuestionKind::kCell:
      return "c";
    case QuestionKind::kTuple:
      return "t";
    case QuestionKind::kFd:
      return "f";
  }
  return "?";
}

/// Formats a double as a C hexfloat: exact round-trip through strtod.
std::string HexDouble(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

bool ParseStrictDouble(std::string_view token, double* out) {
  std::string owned(token);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size() || owned.empty()) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseU64(std::string_view token, uint64_t* out) {
  std::string owned(token);
  char* end = nullptr;
  errno = 0;
  uint64_t value = std::strtoull(owned.c_str(), &end, 10);
  if (errno != 0 || end != owned.c_str() + owned.size() || owned.empty()) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseHexU64(std::string_view token, uint64_t* out) {
  std::string owned(token);
  char* end = nullptr;
  errno = 0;
  uint64_t value = std::strtoull(owned.c_str(), &end, 16);
  if (errno != 0 || end != owned.c_str() + owned.size() || owned.empty()) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseInt(std::string_view token, int* out) {
  uint64_t value = 0;
  bool negative = false;
  if (!token.empty() && token.front() == '-') {
    negative = true;
    token.remove_prefix(1);
  }
  if (!ParseU64(token, &value)) return false;
  // Reject out-of-range magnitudes instead of casting: a hostile journal
  // line like "c -2147483648 0 ..." used to reach `-static_cast<int>(...)`
  // and overflow (UB, found by the journal fuzz target). INT_MIN itself is
  // rejected too — no journal field legitimately holds it.
  if (value > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  *out = negative ? -static_cast<int>(value) : static_cast<int>(value);
  return true;
}

bool ParseAnswer(std::string_view token, Answer* out) {
  if (token == "yes") {
    *out = Answer::kYes;
  } else if (token == "no") {
    *out = Answer::kNo;
  } else if (token == "idk") {
    *out = Answer::kIdk;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

Status Errno(const std::string& action, const std::string& path) {
  const int err = errno;
  return Status::IoError(action + " " + path + ": " + std::strerror(err) +
                         " (errno " + std::to_string(err) + ")");
}

std::string Hex32(uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", value);
  return buf;
}

bool ParseHex32(std::string_view token, uint32_t* out) {
  if (token.size() != 8) return false;
  uint32_t value = 0;
  for (char c : token) {
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

/// Unwraps one record line `<len>.<crc> <payload>`. False on any
/// framing defect: bad length, bad checksum, malformed prefix.
bool UnwrapJournalFrame(std::string_view line, std::string_view* payload) {
  const size_t dot = line.find('.');
  if (dot == std::string_view::npos || dot == 0) return false;
  uint64_t len = 0;
  if (!ParseU64(line.substr(0, dot), &len)) return false;
  const size_t space = dot + 9;
  if (space >= line.size() || line[space] != ' ') return false;
  uint32_t crc = 0;
  if (!ParseHex32(line.substr(dot + 1, 8), &crc)) return false;
  const std::string_view body = line.substr(space + 1);
  if (body.size() != len) return false;
  if (Crc32c(body) != crc) return false;
  *payload = body;
  return true;
}

/// The payload of the end marker: `end <questions> <cost-hexfloat>`.
std::string FormatEndPayload(int questions_asked, double cost_spent) {
  std::ostringstream out;
  out << "end " << questions_asked << ' ' << HexDouble(cost_spent);
  return out.str();
}

bool ParseEndPayload(std::string_view payload, int* questions, double* cost) {
  const std::vector<std::string_view> tokens = SplitTokens(payload);
  if (tokens.size() != 3 || tokens[0] != "end") return false;
  int q = 0;
  double c = 0.0;
  if (!ParseInt(tokens[1], &q) || q < 0 || !ParseStrictDouble(tokens[2], &c)) {
    return false;
  }
  *questions = q;
  *cost = c;
  return true;
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Checks the raw first line opens with the magic and `v=2`. Damage to the
/// magic itself means the file cannot be identified as a journal at all;
/// any other version (including the retired unchecksummed format) is
/// refused by name.
Status CheckJournalMagic(std::string_view line, const std::string& origin) {
  const std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.size() < 2 || tokens[0] != "uguide-journal" ||
      tokens[1].rfind("v=", 0) != 0) {
    return Status::InvalidArgument("journal " + origin +
                                   " has no recognizable header");
  }
  if (tokens[1] != "v=2") {
    return Status::InvalidArgument("journal " + origin +
                                   " has unsupported version " +
                                   std::string(tokens[1]));
  }
  return Status::OK();
}

}  // namespace

bool SameJournalQuestion(const JournalRecord& a, const JournalRecord& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case QuestionKind::kCell:
      return a.cell == b.cell;
    case QuestionKind::kTuple:
      return a.row == b.row;
    case QuestionKind::kFd:
      return a.fd == b.fd;
  }
  return false;
}

bool JournalRecord::operator==(const JournalRecord& other) const {
  return SameJournalQuestion(*this, other) && answer == other.answer &&
         cost == other.cost;
}

bool JournalHeader::Matches(const JournalHeader& other) const {
  return strategy_name == other.strategy_name && budget == other.budget &&
         expert_seed == other.expert_seed &&
         expert_votes == other.expert_votes && idk_rate == other.idk_rate &&
         wrong_rate == other.wrong_rate &&
         content_hash == other.content_hash &&
         data_version == other.data_version;
}

std::string FormatJournalRecord(const JournalRecord& record) {
  std::ostringstream out;
  out << KindTag(record.kind) << ' ';
  switch (record.kind) {
    case QuestionKind::kCell:
      out << record.cell.row << ' ' << record.cell.col;
      break;
    case QuestionKind::kTuple:
      out << record.row;
      break;
    case QuestionKind::kFd: {
      char mask[24];
      std::snprintf(mask, sizeof(mask), "%" PRIx64, record.fd.lhs.mask());
      out << mask << ' ' << record.fd.rhs;
      break;
    }
  }
  out << ' ' << AnswerName(record.answer) << ' ' << HexDouble(record.cost);
  return out.str();
}

Result<JournalRecord> ParseJournalRecord(std::string_view line) {
  const std::vector<std::string_view> tokens = SplitTokens(line);
  const Status malformed =
      Status::InvalidArgument("malformed journal record: " + std::string(line));
  if (tokens.empty()) return malformed;

  JournalRecord record;
  size_t expected = 0;
  if (tokens[0] == "c") {
    record.kind = QuestionKind::kCell;
    expected = 5;
    if (tokens.size() != expected || !ParseInt(tokens[1], &record.cell.row) ||
        !ParseInt(tokens[2], &record.cell.col) || record.cell.row < 0 ||
        record.cell.col < 0 ||
        record.cell.col >= AttributeSet::kMaxAttributes) {
      return malformed;
    }
  } else if (tokens[0] == "t") {
    record.kind = QuestionKind::kTuple;
    expected = 4;
    int row = 0;
    if (tokens.size() != expected || !ParseInt(tokens[1], &row) || row < 0) {
      return malformed;
    }
    record.row = row;
  } else if (tokens[0] == "f") {
    record.kind = QuestionKind::kFd;
    expected = 5;
    uint64_t mask = 0;
    int rhs = 0;
    // The rhs must be a legal attribute index: a journal is untrusted
    // input, and an out-of-range rhs would poison every later
    // AttributeSet::Contains (whose DCHECK aborts debug builds).
    if (tokens.size() != expected || !ParseHexU64(tokens[1], &mask) ||
        !ParseInt(tokens[2], &rhs) || rhs < 0 ||
        rhs >= AttributeSet::kMaxAttributes) {
      return malformed;
    }
    record.fd = Fd(AttributeSet(mask), rhs);
  } else {
    return malformed;
  }
  if (!ParseAnswer(tokens[expected - 2], &record.answer) ||
      !ParseStrictDouble(tokens[expected - 1], &record.cost)) {
    return malformed;
  }
  return record;
}

namespace {

/// Parses the identity fields of a header line (tokens[2..] of it).
Result<JournalHeader> ParseHeaderFields(
    const std::vector<std::string_view>& tokens, const Status& malformed) {
  JournalHeader header;
  bool seen[6] = {false, false, false, false, false, false};
  for (size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos) return malformed;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "strategy") {
      header.strategy_name = std::string(value);
      seen[0] = true;
    } else if (key == "budget") {
      if (!ParseStrictDouble(value, &header.budget)) return malformed;
      seen[1] = true;
    } else if (key == "seed") {
      if (!ParseU64(value, &header.expert_seed)) return malformed;
      seen[2] = true;
    } else if (key == "votes") {
      if (!ParseInt(value, &header.expert_votes)) return malformed;
      seen[3] = true;
    } else if (key == "idk") {
      if (!ParseStrictDouble(value, &header.idk_rate)) return malformed;
      seen[4] = true;
    } else if (key == "wrong") {
      if (!ParseStrictDouble(value, &header.wrong_rate)) return malformed;
      seen[5] = true;
    } else if (key == "dhash") {
      // Optional (live-data identity): absent in pre-live journals,
      // which parse to the 0 defaults.
      if (!ParseHexU64(value, &header.content_hash)) return malformed;
    } else if (key == "dver") {
      if (!ParseU64(value, &header.data_version)) return malformed;
    } else {
      return malformed;
    }
  }
  for (bool s : seen) {
    if (!s) return malformed;
  }
  return header;
}

}  // namespace

std::string FormatJournalHeader(const JournalHeader& header) {
  std::ostringstream out;
  out << "uguide-journal v=2 strategy=" << header.strategy_name
      << " budget=" << HexDouble(header.budget)
      << " seed=" << header.expert_seed << " votes=" << header.expert_votes
      << " idk=" << HexDouble(header.idk_rate)
      << " wrong=" << HexDouble(header.wrong_rate);
  if (header.content_hash != 0 || header.data_version != 0) {
    // Live-data identity. Emitted only when set so pre-live journals (and
    // every local run, which defaults both to 0) stay byte-identical; the
    // hcrc suffix covers the extra fields automatically.
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(header.content_hash));
    out << " dhash=" << hex << " dver=" << header.data_version;
  }
  const std::string body = out.str();
  return body + " hcrc=" + Hex32(Crc32c(body));
}

std::string FormatJournalFrame(std::string_view payload) {
  std::ostringstream out;
  out << payload.size() << '.' << Hex32(Crc32c(payload)) << ' ' << payload;
  return out.str();
}

Result<JournalHeader> ParseJournalHeader(std::string_view line,
                                         const std::string& origin) {
  const Status malformed =
      Status::InvalidArgument("malformed journal header in " + origin);
  constexpr std::string_view kSuffix = " hcrc=";
  const size_t at = line.rfind(kSuffix);
  if (at == std::string_view::npos) return malformed;
  uint32_t crc = 0;
  const std::string_view crc_text = line.substr(at + kSuffix.size());
  if (!ParseHex32(crc_text, &crc)) return malformed;
  const std::string_view body = line.substr(0, at);
  if (Crc32c(body) != crc) {
    return Status::DataLoss("journal " + origin +
                            ": header checksum mismatch (expected " +
                            Hex32(Crc32c(body)) + ", found " +
                            std::string(crc_text) + ")");
  }
  const std::vector<std::string_view> tokens = SplitTokens(body);
  // 8 tokens pre-live, 10 with the optional dhash/dver pair.
  if ((tokens.size() != 8 && tokens.size() != 10) ||
      tokens[0] != "uguide-journal" || tokens[1] != "v=2") {
    return malformed;
  }
  return ParseHeaderFields(tokens, malformed);
}

Status ValidateJournalHeader(const JournalHeader& expected,
                             const JournalHeader& found) {
  auto mismatch = [](const std::string& field, const std::string& want,
                     const std::string& got) {
    return Status::InvalidArgument(
        "journal header mismatch: field '" + field + "' expected " + want +
        ", found " + got +
        " — the journal was written under a different session "
        "configuration and cannot be resumed");
  };
  if (found.strategy_name != expected.strategy_name) {
    return mismatch("strategy", expected.strategy_name, found.strategy_name);
  }
  if (found.budget != expected.budget) {
    return mismatch("budget", std::to_string(expected.budget),
                    std::to_string(found.budget));
  }
  if (found.expert_seed != expected.expert_seed) {
    return mismatch("seed", std::to_string(expected.expert_seed),
                    std::to_string(found.expert_seed));
  }
  if (found.expert_votes != expected.expert_votes) {
    return mismatch("votes", std::to_string(expected.expert_votes),
                    std::to_string(found.expert_votes));
  }
  if (found.idk_rate != expected.idk_rate) {
    return mismatch("idk", std::to_string(expected.idk_rate),
                    std::to_string(found.idk_rate));
  }
  if (found.wrong_rate != expected.wrong_rate) {
    return mismatch("wrong", std::to_string(expected.wrong_rate),
                    std::to_string(found.wrong_rate));
  }
  if (found.content_hash != expected.content_hash) {
    return mismatch("dhash", std::to_string(expected.content_hash),
                    std::to_string(found.content_hash));
  }
  if (found.data_version != expected.data_version) {
    return mismatch("dver", std::to_string(expected.data_version),
                    std::to_string(found.data_version));
  }
  return Status::OK();
}

Result<LoadedJournal> ParseJournalText(std::string_view contents,
                                       const std::string& origin) {
  // Split into lines, remembering whether the final line was terminated —
  // an unterminated tail is the footprint of a crash mid-append — and
  // where each line ends in the file (resume_offset bookkeeping).
  std::vector<std::string_view> lines;
  std::vector<uint64_t> line_end;  // offset just past each line's '\n'
  size_t start = 0;
  bool terminated = true;
  const std::string_view view = contents;
  while (start < view.size()) {
    const size_t nl = view.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(view.substr(start));
      line_end.push_back(view.size());
      terminated = false;
      break;
    }
    lines.push_back(view.substr(start, nl - start));
    line_end.push_back(nl + 1);
    start = nl + 1;
  }
  if (lines.empty()) {
    return Status::InvalidArgument("journal " + origin + " is empty");
  }

  UGUIDE_RETURN_NOT_OK(CheckJournalMagic(lines[0], origin));
  if (!terminated && lines.size() == 1) {
    // Header itself is torn; nothing trustworthy in the file.
    return Status::InvalidArgument("journal " + origin + " has a torn header");
  }

  LoadedJournal journal;
  UGUIDE_ASSIGN_OR_RETURN(journal.header, ParseJournalHeader(lines[0], origin));
  journal.resume_offset = line_end[0];

  for (size_t i = 1; i < lines.size(); ++i) {
    const bool is_tail = i + 1 == lines.size();
    if (is_tail && !terminated) {
      // A torn (unterminated) tail is dropped even if its prefix happens to
      // parse — a partial write proves nothing about the record.
      journal.torn_tail = true;
      break;
    }
    // The line is newline-terminated, so the write that produced it
    // completed — any framing/checksum/parse failure from here on is
    // in-place damage, not a torn write, and must quarantine.
    const Status corrupt = Status::DataLoss(
        "journal " + origin + " line " + std::to_string(i + 1) +
        ": record framing or checksum failure (mid-file corruption)");
    std::string_view payload;
    if (!UnwrapJournalFrame(lines[i], &payload)) return corrupt;
    if (journal.finished) {
      return Status::DataLoss("journal " + origin + " line " +
                              std::to_string(i + 1) +
                              ": record after end marker");
    }
    if (payload.rfind("end ", 0) == 0) {
      if (!ParseEndPayload(payload, &journal.finished_questions,
                           &journal.finished_cost)) {
        return corrupt;
      }
      journal.finished = true;
      // Deliberately not folded into resume_offset: resuming a finished
      // journal truncates the marker away and Finish re-appends it.
      continue;
    }
    Result<JournalRecord> record = ParseJournalRecord(payload);
    if (!record.ok()) return corrupt;
    journal.records.push_back(*std::move(record));
    journal.resume_offset = line_end[i];
  }
  return journal;
}

Result<LoadedJournal> LoadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Errno("cannot open journal", path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed for journal " + path);
  return ParseJournalText(buffer.str(), path);
}

Result<JournalHeader> PeekJournalHeader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Errno("cannot open journal", path);
  std::string line;
  if (!std::getline(in, line)) {
    if (in.bad()) return Status::IoError("read failed for journal " + path);
    return Status::InvalidArgument("journal " + path + " is empty");
  }
  UGUIDE_RETURN_NOT_OK(CheckJournalMagic(line, path));
  return ParseJournalHeader(line, path);
}

Result<JournalFsyncMode> ParseJournalFsyncMode(std::string_view text) {
  if (text == "every") return JournalFsyncMode::kEvery;
  if (text == "batch") return JournalFsyncMode::kBatch;
  return Status::InvalidArgument("unknown journal fsync mode '" +
                                 std::string(text) +
                                 "' (expected every|batch)");
}

Status FsyncDir(const std::string& dir) {
  IoFault fault = FaultRegistry::Global().enabled()
                      ? FaultRegistry::Global().OnIoPoint("journal.fsync")
                      : IoFault{};
  if (fault.crash_after) FaultRegistry::CrashNow();
  if (!fault.status.ok()) {
    errno = fault.fault_errno;
    return Errno("cannot fsync directory", dir);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("cannot open directory", dir);
  if (::fsync(fd) != 0) {
    const Status status = Errno("cannot fsync directory", dir);
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) return Errno("cannot close directory", dir);
  return Status::OK();
}

Status QuarantineJournal(const std::string& path,
                         std::string* quarantined_path) {
  const std::string target = path + ".quarantined";
  IoFault fault = FaultRegistry::Global().enabled()
                      ? FaultRegistry::Global().OnIoPoint("journal.rename")
                      : IoFault{};
  if (fault.crash_after) FaultRegistry::CrashNow();
  if (!fault.status.ok()) {
    errno = fault.fault_errno;
    return Errno("cannot quarantine journal", path);
  }
  if (::rename(path.c_str(), target.c_str()) != 0) {
    return Errno("cannot quarantine journal", path);
  }
  UGUIDE_RETURN_NOT_OK(FsyncDir(ParentDir(path)));
  if (quarantined_path != nullptr) *quarantined_path = target;
  return Status::OK();
}

Result<JournalWriter> JournalWriter::Open(const std::string& path,
                                          const JournalHeader& header,
                                          const JournalWriterOptions& options) {
  {
    IoFault fault = FaultRegistry::Global().enabled()
                        ? FaultRegistry::Global().OnIoPoint("journal.open")
                        : IoFault{};
    if (fault.crash_after) FaultRegistry::CrashNow();
    if (!fault.status.ok()) {
      errno = fault.fault_errno;
      return Errno("cannot open journal", path);
    }
  }
  const int flags = O_WRONLY | O_CREAT | (options.resume ? O_APPEND : O_TRUNC);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return Errno("cannot open journal", path);
  JournalWriter writer(fd, path, options.fsync_mode);
  if (options.resume) {
    // Drop the torn tail / stale end marker the load classified away, so
    // new appends can never concatenate onto a partial old line.
    if (::ftruncate(fd, static_cast<off_t>(options.resume_offset)) != 0) {
      return Errno("cannot truncate journal for resume", path);
    }
  } else {
    const std::string line = FormatJournalHeader(header) + "\n";
    UGUIDE_RETURN_NOT_OK(writer.WriteAll(line));
    UGUIDE_RETURN_NOT_OK(writer.SyncFd());
    // The file's *name* must survive a crash too, or recovery would never
    // see the journal it is supposed to resume.
    if (options.sync_dir) UGUIDE_RETURN_NOT_OK(FsyncDir(ParentDir(path)));
  }
  return writer;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      fsync_mode_(other.fsync_mode_),
      unsynced_(other.unsynced_),
      poisoned_(std::move(other.poisoned_)) {
  other.fd_ = -1;
  other.unsynced_ = 0;
  other.poisoned_ = Status::OK();
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    Close().IgnoreError();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    fsync_mode_ = other.fsync_mode_;
    unsynced_ = other.unsynced_;
    poisoned_ = std::move(other.poisoned_);
    other.fd_ = -1;
    other.unsynced_ = 0;
    other.poisoned_ = Status::OK();
  }
  return *this;
}

JournalWriter::~JournalWriter() { Close().IgnoreError(); }

Status JournalWriter::WriteAll(std::string_view data) {
  if (!poisoned_.ok()) return poisoned_;
  size_t limit = data.size();
  IoFault fault = FaultRegistry::Global().enabled()
                      ? FaultRegistry::Global().OnIoPoint("journal.write")
                      : IoFault{};
  const bool faulted = !fault.status.ok() || fault.crash_after;
  if (faulted && fault.bytes < limit) limit = fault.bytes;
  size_t off = 0;
  while (off < limit) {
    const ssize_t written = ::write(fd_, data.data() + off, limit - off);
    if (written < 0) {
      if (errno == EINTR) continue;
      poisoned_ = Errno("journal append to", path_);
      return poisoned_;
    }
    off += static_cast<size_t>(written);
  }
  if (fault.crash_after) {
    // Torn write: the partial line is in the page cache (visible to the
    // restarted daemon) and the process dies before finishing it.
    FaultRegistry::CrashNow();
  }
  if (faulted) {
    errno = fault.fault_errno;
    poisoned_ = Errno("journal append to", path_);
    return poisoned_;
  }
  return Status::OK();
}

Status JournalWriter::SyncFd() {
  if (!poisoned_.ok()) return poisoned_;
  IoFault fault = FaultRegistry::Global().enabled()
                      ? FaultRegistry::Global().OnIoPoint("journal.fsync")
                      : IoFault{};
  if (fault.crash_after) FaultRegistry::CrashNow();
  if (!fault.status.ok()) {
    errno = fault.fault_errno;
    poisoned_ = Errno("journal fsync of", path_);
    return poisoned_;
  }
  if (::fsync(fd_) != 0) {
    // Poison, never retry: after a failed fsync the kernel may have marked
    // the dirty pages clean without writing them, so a "successful" retry
    // would claim durability for bytes that are gone (fsyncgate).
    poisoned_ = Errno("journal fsync of", path_);
    return poisoned_;
  }
  return Status::OK();
}

Status JournalWriter::Append(const JournalRecord& record) {
  if (fd_ < 0) return Status::FailedPrecondition("journal writer is closed");
  if (!poisoned_.ok()) return poisoned_;
  const std::string line =
      FormatJournalFrame(FormatJournalRecord(record)) + "\n";
  UGUIDE_RETURN_NOT_OK(WriteAll(line));
  if (fsync_mode_ == JournalFsyncMode::kEvery) {
    UGUIDE_RETURN_NOT_OK(SyncFd());
  } else {
    ++unsynced_;
    if (unsynced_ >= kBatchInterval) UGUIDE_RETURN_NOT_OK(Sync());
  }
  // Fires *after* the fsync: a crash@k plan leaves exactly k durable
  // records (at most k in batch mode), which the kill/resume tests assert.
  UGUIDE_FAULT_POINT("session.record");
  return Status::OK();
}

Status JournalWriter::AppendEnd(int questions_asked, double cost_spent) {
  if (fd_ < 0) return Status::FailedPrecondition("journal writer is closed");
  if (!poisoned_.ok()) return poisoned_;
  const std::string line =
      FormatJournalFrame(FormatEndPayload(questions_asked, cost_spent)) + "\n";
  UGUIDE_RETURN_NOT_OK(WriteAll(line));
  // Always durable, whatever the batch mode: the marker is the GC
  // eligibility bit and must not evaporate with the page cache.
  UGUIDE_RETURN_NOT_OK(SyncFd());
  unsynced_ = 0;
  return Status::OK();
}

Status JournalWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("journal writer is closed");
  if (!poisoned_.ok()) return poisoned_;
  if (unsynced_ == 0) return Status::OK();
  UGUIDE_RETURN_NOT_OK(SyncFd());
  unsynced_ = 0;
  return Status::OK();
}

Status JournalWriter::Close() {
  if (fd_ < 0) return poisoned_;
  const int fd = fd_;
  fd_ = -1;
  // A poisoned writer must not fsync again (see SyncFd); just release the
  // descriptor and keep reporting the original failure.
  if (poisoned_.ok() && ::fsync(fd) != 0) {
    const Status status = Errno("journal close fsync of", path_);
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0 && poisoned_.ok()) {
    return Errno("journal close of", path_);
  }
  return poisoned_;
}

}  // namespace uguide
