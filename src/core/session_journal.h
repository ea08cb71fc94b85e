#ifndef UGUIDE_CORE_SESSION_JOURNAL_H_
#define UGUIDE_CORE_SESSION_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "fd/fd.h"
#include "oracle/expert.h"
#include "relation/relation.h"

namespace uguide {

/// \brief One answered question: what was asked, what the expert said, and
/// what it cost.
///
/// Costs are serialized as C hexfloats (`%a`) so a record round-trips
/// bit-exactly — replayed sessions must reproduce `cost_spent` to the last
/// ulp or the resume-determinism contract breaks.
struct JournalRecord {
  QuestionKind kind = QuestionKind::kCell;
  Cell cell;       ///< kCell: the cell asked about.
  TupleId row = 0; ///< kTuple: the tuple asked about.
  Fd fd;           ///< kFd: the FD asked about.
  Answer answer = Answer::kIdk;
  double cost = 0.0;

  bool operator==(const JournalRecord& other) const;
};

/// \brief The journal header: enough session identity to refuse a resume
/// against a journal written under different conditions.
struct JournalHeader {
  std::string strategy_name;
  double budget = 0.0;
  uint64_t expert_seed = 0;
  int expert_votes = 1;
  double idk_rate = 0.0;
  double wrong_rate = 0.0;
  /// Identity of the data the session ran against (`dhash=`/`dver=`,
  /// emitted only when either is nonzero so pre-live journals stay
  /// byte-identical). A resume whose pinned pair differs from the live
  /// dataset's is refused — answers must not be replayed onto different
  /// data (the `version_mismatch` refusal of the serving layer).
  uint64_t content_hash = 0;
  uint64_t data_version = 0;

  bool Matches(const JournalHeader& other) const;
};

/// A parsed journal: the header plus every intact record.
struct LoadedJournal {
  JournalHeader header;
  std::vector<JournalRecord> records;
  /// True iff the file ended in a torn (incomplete) last line, which was
  /// dropped — the expected shape after a crash mid-write.
  bool torn_tail = false;
  /// True iff an end marker was found: the session ran to completion and
  /// its report is durable, so the file is eligible for retention GC.
  bool finished = false;
  /// From the end marker (finished journals only).
  int finished_questions = 0;
  double finished_cost = 0.0;
  /// Byte offset just past the last intact *question* record (excludes any
  /// end marker and any torn/garbage tail). A resuming writer truncates the
  /// file to this offset before appending, so a torn tail or a superseded
  /// end marker can never be concatenated with new records.
  uint64_t resume_offset = 0;
};

/// True iff `a` and `b` ask the same question (answer/cost ignored) — the
/// session state machine's replay-match predicate.
bool SameJournalQuestion(const JournalRecord& a, const JournalRecord& b);

/// Serializes one record's payload (no framing, no trailing newline).
std::string FormatJournalRecord(const JournalRecord& record);

/// Parses one record payload. Fails on any deviation from the format.
Result<JournalRecord> ParseJournalRecord(std::string_view line);

/// \brief Serializes the header line (no trailing newline): the identity
/// fields under `v=2`, closed by `hcrc=XXXXXXXX` — the CRC32C of
/// everything before the ` hcrc=` suffix. A flipped bit anywhere in the
/// header is therefore detectable, not just in the records.
std::string FormatJournalHeader(const JournalHeader& header);

/// \brief Parses a header line: verifies the hcrc suffix covers the rest
/// of the line, then parses the identity fields. A well-formed header
/// whose checksum fails is kDataLoss (it was once valid); anything
/// structurally wrong is InvalidArgument. `origin` is used in error
/// messages only.
Result<JournalHeader> ParseJournalHeader(std::string_view line,
                                         const std::string& origin);

/// \brief Wraps a payload as one record line (no trailing newline):
/// `<len>.<crc> <payload>` with `len` the decimal payload byte count and
/// `crc` the 8-hex-digit CRC32C of the payload. Length framing catches
/// truncation-with-coincidental-parse; the checksum catches bit-rot.
std::string FormatJournalFrame(std::string_view payload);

/// \brief Compares a loaded journal header against the resume
/// configuration.
///
/// Returns OK on a full match; otherwise an InvalidArgument naming the
/// first mismatching pinned field (strategy, budget, seed, votes, idk,
/// wrong) with its expected and found values, so a failed resume says
/// exactly which knob diverged instead of dumping both headers.
Status ValidateJournalHeader(const JournalHeader& expected,
                             const JournalHeader& found);

/// \brief Parses the full text of a journal (header line + records).
///
/// The pure-parsing core of LoadJournal, exposed so hostile input can be
/// driven directly (fuzzing) without touching the filesystem. `origin` is
/// used in error messages only. Never crashes: any malformed input yields
/// a Status.
Result<LoadedJournal> ParseJournalText(std::string_view contents,
                                       const std::string& origin);

/// \brief Reads a journal file.
///
/// The framing makes the call deterministic. An *unterminated* tail —
/// the only shape a torn write can leave — is salvaged (`torn_tail`,
/// records up to the last intact frame, `resume_offset` set). Any
/// *terminated* line that fails its length/CRC/parse check is proof of
/// in-place damage and fails the load with StatusCode::kDataLoss: the
/// caller must quarantine, never resume. A file that is empty or has no
/// recognizable header is InvalidArgument ("not a journal"), and so is one
/// whose header names any version but `v=2` ("unsupported version"; the
/// unchecksummed version-1 format is no longer read).
Result<LoadedJournal> LoadJournal(const std::string& path);

/// \brief Reads only the header line of a journal file.
///
/// The serving layer peeks the pinned `dhash=`/`dver=` pair before opening
/// a resume so it can pick the matching live epoch — or refuse with a
/// structured `version_mismatch` — without paying for a full record parse.
/// Fails exactly where LoadJournal's header handling would.
Result<JournalHeader> PeekJournalHeader(const std::string& path);

/// \brief Fsyncs a directory, making renames/creates/unlinks inside it
/// durable. Fires the "journal.fsync" fault site.
Status FsyncDir(const std::string& dir);

/// \brief Moves a damaged journal aside as `<path>.quarantined` (fsyncing
/// the parent directory so the rename itself survives a crash) and returns
/// the quarantine path via `quarantined_path` if non-null. Fires the
/// "journal.rename" fault site. The original path no longer exists on
/// success, so a later resume attempt sees NotFound + the quarantine
/// marker instead of re-reading damaged bytes.
Status QuarantineJournal(const std::string& path,
                         std::string* quarantined_path = nullptr);

/// Durability policy of a JournalWriter (the `--journal-fsync` knob).
enum class JournalFsyncMode {
  /// fsync after every record: a record the caller saw succeed survives
  /// any subsequent crash. The default, and the strongest guarantee.
  kEvery,
  /// fsync every kBatchInterval records (and on Sync/Close): a crash can
  /// lose up to one batch of trailing records. Resume stays bit-identical —
  /// it simply replays fewer records and re-asks the rest — so batch mode
  /// trades a bounded amount of replayable work for not serializing many
  /// concurrent served sessions on one fsync each per answer.
  kBatch,
};

/// Parses "every" / "batch"; anything else is an InvalidArgument.
Result<JournalFsyncMode> ParseJournalFsyncMode(std::string_view text);

/// How a JournalWriter is opened.
struct JournalWriterOptions {
  /// False: truncate/create and write a fresh header. True: the caller has
  /// loaded and validated the journal; the file is truncated to
  /// `resume_offset` (dropping any torn tail or end marker) and extended.
  bool resume = false;
  JournalFsyncMode fsync_mode = JournalFsyncMode::kEvery;
  /// On resume: LoadedJournal::resume_offset. Ignored on create.
  uint64_t resume_offset = 0;
  /// On create: fsync the parent directory after the file exists, so the
  /// journal's *name* survives a crash too. (Off only for unit tests that
  /// count fsyncs.)
  bool sync_dir = true;
};

/// \brief Append-only, fsync-per-record journal writer.
///
/// Every Append writes one line and (in kEvery mode) fsyncs before
/// returning, so a record the caller saw succeed survives any subsequent
/// crash. The fault site "session.record" fires *after* the fsync: a
/// `crash@k` plan therefore leaves exactly k durable records — the
/// invariant the kill/resume tests are built on. In kBatch mode the fsync
/// is amortized over kBatchInterval records and a crash@k plan leaves *at
/// most* k durable records.
///
/// Disk faults: the syscall paths run through the "journal.open",
/// "journal.write" and "journal.fsync" fault sites and check every
/// ::write/::fsync/::close return value; failures carry the journal path
/// and errno. A failed write or fsync *poisons* the writer: after fsync
/// reports an error the kernel may have dropped the dirty pages, so
/// retrying the fsync and believing its success would un-report data loss
/// (the fsyncgate failure mode). Every later Append/Sync/AppendEnd returns
/// the original error; Close still releases the fd.
class JournalWriter {
 public:
  /// Records per fsync in JournalFsyncMode::kBatch.
  static constexpr int kBatchInterval = 32;

  /// Opens `path` per `options` (see JournalWriterOptions).
  static Result<JournalWriter> Open(const std::string& path,
                                    const JournalHeader& header,
                                    const JournalWriterOptions& options);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Appends one record (write, plus fsync per the mode), then fires the
  /// "session.record" fault site.
  Status Append(const JournalRecord& record);

  /// Appends the end marker recording that the session finished with
  /// `questions_asked` questions at `cost_spent`, and fsyncs regardless of
  /// mode — the marker is what makes the journal eligible for retention
  /// GC, so it must not sit in the page cache.
  Status AppendEnd(int questions_asked, double cost_spent);

  /// Forces any unsynced appends to disk (no-op in kEvery mode or when
  /// nothing is pending). Batch-mode callers invoke this at quiesce points
  /// (session end, daemon drain).
  Status Sync();

  /// Fsyncs and closes the file. Idempotent; also run by the destructor.
  /// A poisoned writer skips the fsync (see class comment) and reports the
  /// original error after releasing the fd.
  Status Close();

  /// The sticky first write/fsync error, if any. A non-OK value means
  /// records since that point are NOT durable and the session must be
  /// surfaced as storage-failed, not silently continued.
  const Status& poisoned() const { return poisoned_; }

 private:
  JournalWriter(int fd, std::string path, JournalFsyncMode fsync_mode)
      : fd_(fd), path_(std::move(path)), fsync_mode_(fsync_mode) {}

  /// Write-it-all loop through the "journal.write" fault site; sets
  /// `poisoned_` on failure.
  Status WriteAll(std::string_view data);
  /// fsync through the "journal.fsync" fault site; sets `poisoned_` on
  /// failure and never retries after one.
  Status SyncFd();

  int fd_ = -1;
  std::string path_;
  JournalFsyncMode fsync_mode_ = JournalFsyncMode::kEvery;
  /// Appends since the last fsync (kBatch bookkeeping).
  int unsynced_ = 0;
  /// First write/fsync failure; sticky (fsyncgate discipline).
  Status poisoned_ = Status::OK();
};

}  // namespace uguide

#endif  // UGUIDE_CORE_SESSION_JOURNAL_H_
