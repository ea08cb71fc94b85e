// The durable-state contract of the journal format: CRC32C framing makes
// torn-write salvage versus mid-file corruption a *deterministic*
// classification (never a guess), disk faults surface as poisoned writers
// instead of silent loss, and a crash at any byte leaves a journal that
// either resumes exactly or quarantines loudly.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "core/session_journal.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "test_util.h"

namespace uguide {
namespace {

JournalHeader TestHeader() {
  JournalHeader header;
  header.strategy_name = "test-strategy";
  header.budget = 48.0;
  header.expert_seed = 7;
  header.expert_votes = 1;
  return header;
}

JournalRecord CellRecord(int row, int col, Answer answer, double cost) {
  JournalRecord record;
  record.kind = QuestionKind::kCell;
  record.cell = Cell{row, col};
  record.answer = answer;
  record.cost = cost;
  return record;
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), f),
            contents.size());
  std::fclose(f);
}

/// Writes a finished 3-record v2 journal and returns its full text.
std::string WriteFinishedJournal(const std::string& path) {
  JournalWriterOptions options;
  Result<JournalWriter> writer =
      JournalWriter::Open(path, TestHeader(), options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE(writer->Append(CellRecord(1, 2, Answer::kYes, 3.0)).ok());
  EXPECT_TRUE(writer->Append(CellRecord(4, 0, Answer::kNo, 5.5)).ok());
  EXPECT_TRUE(writer->Append(CellRecord(9, 1, Answer::kIdk, 1.25)).ok());
  EXPECT_TRUE(writer->AppendEnd(3, 9.75).ok());
  EXPECT_TRUE(writer->Close().ok());
  return ReadFileOrDie(path);
}

// Every test leaves the process-global fault registry clean.
class DurabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// --- Checksums and framing --------------------------------------------------

TEST(Crc32cTest, MatchesKnownVectors) {
  // The iSCSI/RFC 3720 check value: CRC-32C of "123456789".
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  // 32 zero bytes, another published vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  const std::string payload = "c 3 1 yes 0x1.8p+1";
  const uint32_t good = Crc32c(payload);
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string flipped = payload;
    flipped[i] ^= 0x01;
    EXPECT_NE(Crc32c(flipped), good) << "flip at byte " << i;
  }
}

TEST(JournalFrameTest, FrameEmbedsLengthAndCrc) {
  const std::string payload = "t 3 yes 0x1.ep+3";
  const std::string frame = FormatJournalFrame(payload);
  // `<len>.<crc8hex> <payload>`
  char expected[64];
  std::snprintf(expected, sizeof(expected), "%zu.%08x ", payload.size(),
                Crc32c(payload));
  EXPECT_EQ(frame, std::string(expected) + payload);
}

// --- Round trips ------------------------------------------------------------

TEST_F(DurabilityTest, V2RoundTripWithEndMarker) {
  const std::string path = ::testing::TempDir() + "/uguide_v2_rt.journal";
  WriteFinishedJournal(path);
  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->header.Matches(TestHeader()));
  ASSERT_EQ(loaded->records.size(), 3u);
  EXPECT_TRUE(loaded->records[0] == CellRecord(1, 2, Answer::kYes, 3.0));
  EXPECT_FALSE(loaded->torn_tail);
  EXPECT_TRUE(loaded->finished);
  EXPECT_EQ(loaded->finished_questions, 3);
  EXPECT_EQ(loaded->finished_cost, 9.75);
  // The resume offset excludes the end marker: resuming truncates it away
  // and the journal goes back to "in progress".
  const std::string text = ReadFileOrDie(path);
  EXPECT_LT(loaded->resume_offset, text.size());
  EXPECT_GT(loaded->resume_offset, 0u);
}

// The unchecksummed version-1 format is no longer read: a leftover v1
// journal is refused by name, quarantined by the boot scan with its bytes
// intact, and its session ends in the terminal journal_corrupt verdict
// instead of vanishing.
TEST_F(DurabilityTest, V1JournalIsRefusedAndQuarantined) {
  const std::string v1_text =
      "uguide-journal v=1 strategy=FDQ-BMC budget=0x1p+3 seed=7 votes=1 "
      "idk=0x0p+0 wrong=0x0p+0\n"
      "t 3 yes 0x1.ep+3\n";
  Result<LoadedJournal> parsed = ParseJournalText(v1_text, "test");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("v=1"), std::string::npos)
      << parsed.status().message();

  const std::string dir = ::testing::TempDir() + "/uguide_v1_boot";
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/old.journal.quarantined").c_str());
  WriteFileOrDie(dir + "/old.journal", v1_text);

  const Session session = testing::MakeHospitalSession(300);
  SessionManagerOptions options;
  options.journal_dir = dir;
  SessionManager manager(&session, options);
  EXPECT_EQ(manager.recovery_stats().quarantined, 1);
  EXPECT_EQ(manager.recovery_stats().resumable, 0);
  ClientFrame health;
  health.op = ClientOp::kHealth;
  const std::vector<std::string> health_reply =
      manager.HandleLine(FormatClientFrame(health));
  ASSERT_EQ(health_reply.size(), 1u);
  EXPECT_EQ(ParseServerFrame(health_reply[0]).ValueOrDie()
                .health.journals_quarantined,
            1);
  struct stat st;
  EXPECT_NE(::stat((dir + "/old.journal").c_str(), &st), 0);
  EXPECT_EQ(ReadFileOrDie(dir + "/old.journal.quarantined"), v1_text);

  ClientFrame open;
  open.op = ClientOp::kOpen;
  open.id = "old";
  open.strategy = "FDQ-BMC";
  open.budget = 8.0;
  open.has_budget = true;
  open.resume = true;
  const std::vector<std::string> reply =
      manager.HandleLine(FormatClientFrame(open));
  ASSERT_EQ(reply.size(), 1u);
  const ServerFrame refusal = ParseServerFrame(reply[0]).ValueOrDie();
  EXPECT_EQ(refusal.type, ServerFrameType::kError);
  EXPECT_EQ(refusal.error_code, error_code::kJournalCorrupt);
  EXPECT_LT(refusal.retry_after_ms, 0);
}

// --- The torn-write matrix --------------------------------------------------

// Truncating a v2 journal at EVERY byte offset must classify as salvage
// (or "not a journal" while still inside the header) — never as DataLoss,
// because truncation is exactly what a torn write leaves and every
// surviving full line is still intact.
TEST_F(DurabilityTest, TruncationAtEveryByteSalvagesDeterministically) {
  const std::string path = ::testing::TempDir() + "/uguide_trunc.journal";
  const std::string full = WriteFinishedJournal(path);
  Result<LoadedJournal> reference = LoadJournal(path);
  ASSERT_TRUE(reference.ok());

  // Line boundaries: offsets just past each '\n'.
  std::vector<size_t> line_end;
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') line_end.push_back(i + 1);
  }
  ASSERT_EQ(line_end.size(), 5u);  // header + 3 records + end marker
  const size_t header_end = line_end[0];

  const std::string trunc_path = path + ".trunc";
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteFileOrDie(trunc_path, full.substr(0, cut));
    Result<LoadedJournal> loaded = LoadJournal(trunc_path);
    if (cut < header_end) {
      // Torn inside the header: unusable, but InvalidArgument ("not a
      // journal"), not DataLoss — nothing durable was damaged in place.
      EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
      EXPECT_NE(loaded.status().code(), StatusCode::kDataLoss)
          << "cut=" << cut << ": " << loaded.status().ToString();
      continue;
    }
    ASSERT_TRUE(loaded.ok())
        << "cut=" << cut << ": " << loaded.status().ToString();
    // Records = the full record lines that survived, in order; the resume
    // offset never reaches past the last intact record.
    size_t whole_lines = 0;
    for (size_t end : line_end) {
      if (end <= cut) ++whole_lines;
    }
    const size_t whole_records = whole_lines - 1;  // minus the header
    const size_t expect_records =
        std::min<size_t>(whole_records, reference->records.size());
    EXPECT_EQ(loaded->records.size(), expect_records) << "cut=" << cut;
    for (size_t i = 0; i < loaded->records.size(); ++i) {
      EXPECT_TRUE(loaded->records[i] == reference->records[i])
          << "cut=" << cut << " record=" << i;
    }
    EXPECT_LE(loaded->resume_offset, cut) << "cut=" << cut;
    // The end marker only counts when its line survived whole.
    EXPECT_EQ(loaded->finished, whole_lines == line_end.size())
        << "cut=" << cut;
    // A cut mid-line is a torn tail; a cut on a boundary is clean.
    const bool on_boundary =
        cut == header_end ||
        std::find(line_end.begin(), line_end.end(), cut) != line_end.end();
    EXPECT_EQ(loaded->torn_tail, !on_boundary) << "cut=" << cut;
  }
}

// Flipping one bit at EVERY byte offset of a terminated line must be
// caught as DataLoss (quarantine), with exactly one excused offset: the
// final newline, whose flip turns the last line into a torn tail (and
// salvage of a torn tail is correct — the line's payload is gone either
// way, and no preceding record is trusted any less).
TEST_F(DurabilityTest, CorruptionAtEveryByteIsCaughtOrTorn) {
  const std::string path = ::testing::TempDir() + "/uguide_corrupt.journal";
  const std::string full = WriteFinishedJournal(path);
  const size_t header_end = full.find('\n') + 1;

  const std::string bad_path = path + ".bad";
  for (size_t at = 0; at < full.size(); ++at) {
    std::string damaged = full;
    // XOR 0x01 never maps a journal byte to '\n' (the record charset has
    // nothing at 0x0a^0x01=0x0b), so the line structure is preserved —
    // except at a '\n' itself, where the flip *removes* the terminator.
    damaged[at] ^= 0x01;
    WriteFileOrDie(bad_path, damaged);
    Result<LoadedJournal> loaded = LoadJournal(bad_path);
    if (at == full.size() - 1) {
      // The final newline became a torn tail: salvage, records intact.
      ASSERT_TRUE(loaded.ok())
          << "at=" << at << ": " << loaded.status().ToString();
      EXPECT_TRUE(loaded->torn_tail);
      EXPECT_EQ(loaded->records.size(), 3u);
      EXPECT_FALSE(loaded->finished);
      continue;
    }
    ASSERT_FALSE(loaded.ok()) << "flip at byte " << at << " went unnoticed";
    if (at >= header_end && full[at] != '\n') {
      // In-place damage to a terminated record line: DataLoss, the
      // quarantine trigger. (A flipped mid-file newline merges two lines;
      // the merged line fails its frame check — also DataLoss.)
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << "at=" << at << ": " << loaded.status().ToString();
    }
  }
  // Header damage is caught by the header CRC (except inside the magic,
  // where the file stops being recognizable at all — still a refusal).
  std::string damaged = full;
  damaged[header_end - 2] ^= 0x01;  // last hex digit of hcrc
  WriteFileOrDie(bad_path, damaged);
  Result<LoadedJournal> loaded = LoadJournal(bad_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("header"), std::string::npos)
      << loaded.status().message();
}

TEST_F(DurabilityTest, RecordAfterEndMarkerIsDataLoss) {
  const std::string path = ::testing::TempDir() + "/uguide_after_end.journal";
  std::string text = FormatJournalHeader(TestHeader()) + "\n";
  text += FormatJournalFrame("t 3 yes 0x1.ep+3") + "\n";
  text += FormatJournalFrame("end 1 0x1.ep+3") + "\n";
  text += FormatJournalFrame("t 4 yes 0x1.ep+3") + "\n";
  WriteFileOrDie(path, text);
  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

// --- Salvage then resume ----------------------------------------------------

TEST_F(DurabilityTest, SalvageThenResumeTruncatesTornTail) {
  const std::string path = ::testing::TempDir() + "/uguide_salvage.journal";
  const std::string full = WriteFinishedJournal(path);
  // Tear the file inside the third record.
  std::vector<size_t> line_end;
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i] == '\n') line_end.push_back(i + 1);
  }
  WriteFileOrDie(path, full.substr(0, line_end[2] + 4));

  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->torn_tail);
  ASSERT_EQ(loaded->records.size(), 2u);
  EXPECT_EQ(loaded->resume_offset, line_end[2]);

  // Resume: the writer truncates to the last good record, then extends.
  JournalWriterOptions options;
  options.resume = true;
  options.resume_offset = loaded->resume_offset;
  Result<JournalWriter> writer =
      JournalWriter::Open(path, TestHeader(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append(CellRecord(7, 7, Answer::kYes, 2.0)).ok());
  ASSERT_TRUE(writer->AppendEnd(3, 10.5).ok());
  ASSERT_TRUE(writer->Close().ok());

  Result<LoadedJournal> resumed = LoadJournal(path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed->torn_tail);
  ASSERT_EQ(resumed->records.size(), 3u);
  EXPECT_TRUE(resumed->records[2] == CellRecord(7, 7, Answer::kYes, 2.0));
  EXPECT_TRUE(resumed->finished);
  EXPECT_EQ(resumed->finished_questions, 3);
}

TEST_F(DurabilityTest, QuarantineMovesFileAsidePreservingBytes) {
  const std::string path = ::testing::TempDir() + "/uguide_quarantine.journal";
  const std::string full = WriteFinishedJournal(path);
  std::string quarantined;
  ASSERT_TRUE(QuarantineJournal(path, &quarantined).ok());
  EXPECT_EQ(quarantined, path + ".quarantined");
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "original must no longer exist";
  // The evidence is preserved byte-for-byte for triage.
  EXPECT_EQ(ReadFileOrDie(quarantined), full);
  ::unlink(quarantined.c_str());
}

// --- Disk-fault injection ---------------------------------------------------

TEST_F(DurabilityTest, PlanGrammarParsesDiskFaultActions) {
  FaultRegistry& reg = FaultRegistry::Global();
  ASSERT_TRUE(reg.LoadPlan("a=eio@1; b=enospc; c=short:12@2; d=torn:3")
                  .ok());
  std::vector<FaultRule> rules = reg.rules();
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].action, FaultAction::kEio);
  EXPECT_EQ(rules[1].action, FaultAction::kEnospc);
  EXPECT_EQ(rules[2].action, FaultAction::kShortWrite);
  EXPECT_EQ(rules[2].byte_count, 12);
  EXPECT_EQ(rules[3].action, FaultAction::kTornWrite);
  EXPECT_EQ(rules[3].byte_count, 3);
  // Malformed byte counts are a load error, not a silent zero.
  EXPECT_FALSE(reg.LoadPlan("x=short:").ok());
  EXPECT_FALSE(reg.LoadPlan("x=torn:abc").ok());
  EXPECT_FALSE(reg.LoadPlan("x=short:-1").ok());
}

TEST_F(DurabilityTest, FailedFsyncPoisonsWriterForever) {
  const std::string path = ::testing::TempDir() + "/uguide_fsyncfail.journal";
  // Hit 1 is the header fsync at open (sync_dir off keeps the directory
  // fsync from consuming a hit); hit 2 is the first record's.
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("journal.fsync=eio@2").ok());
  JournalWriterOptions options;
  options.sync_dir = false;
  Result<JournalWriter> writer =
      JournalWriter::Open(path, TestHeader(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  const Status first = writer->Append(CellRecord(1, 2, Answer::kYes, 3.0));
  ASSERT_FALSE(first.ok());
  // Errors carry the path and errno for the operator.
  EXPECT_NE(first.message().find(path), std::string::npos) << first.message();
  EXPECT_NE(first.message().find("errno"), std::string::npos)
      << first.message();

  // fsyncgate discipline: no retry is attempted, every later operation
  // reports the ORIGINAL failure, and Close refuses to claim durability.
  EXPECT_EQ(writer->Append(CellRecord(4, 0, Answer::kNo, 5.5)).ToString(),
            first.ToString());
  EXPECT_EQ(writer->Sync().ToString(), first.ToString());
  EXPECT_EQ(writer->AppendEnd(1, 3.0).ToString(), first.ToString());
  EXPECT_EQ(writer->poisoned().ToString(), first.ToString());
  EXPECT_EQ(writer->Close().ToString(), first.ToString());
}

TEST_F(DurabilityTest, ShortWriteOnEnospcLeavesSalvageableTornTail) {
  const std::string path = ::testing::TempDir() + "/uguide_enospc.journal";
  // Hit 1 is the header write; hit 2 persists only 5 bytes of the first
  // record's line, then reports ENOSPC.
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("journal.write=short:5@2").ok());
  JournalWriterOptions options;
  options.sync_dir = false;
  Result<JournalWriter> writer =
      JournalWriter::Open(path, TestHeader(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const Status st = writer->Append(CellRecord(1, 2, Answer::kYes, 3.0));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("No space"), std::string::npos) << st.message();
  writer->Close().IgnoreError();
  FaultRegistry::Global().Reset();

  // The torn 5-byte tail is salvage, not corruption: a restart resumes
  // from the header as if the append never happened.
  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->torn_tail);
  EXPECT_EQ(loaded->records.size(), 0u);
}

TEST_F(DurabilityTest, OpenFaultSurfacesAsStatus) {
  const std::string path = ::testing::TempDir() + "/uguide_openfail.journal";
  ASSERT_TRUE(FaultRegistry::Global().LoadPlan("journal.open=eio").ok());
  JournalWriterOptions options;
  Result<JournalWriter> writer =
      JournalWriter::Open(path, TestHeader(), options);
  ASSERT_FALSE(writer.ok());
  EXPECT_NE(writer.status().message().find(path), std::string::npos);
}

// A torn-write fault kills the process mid-line (the injected twin of a
// power cut). The partial line lands in the page cache, so the parent —
// standing in for the restarted daemon — must find a salvageable torn
// tail with exactly the records that were durable before the cut.
TEST_F(DurabilityTest, TornWriteCrashSalvagesAndResumes) {
  const std::string path = ::testing::TempDir() + "/uguide_torncrash.journal";
  ::unlink(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: append one full record, then die 7 bytes into the second.
    // Hits on journal.write: 1 = header, 2 = record one, 3 = record two.
    if (!FaultRegistry::Global().LoadPlan("journal.write=torn:7@3").ok()) {
      ::_exit(3);
    }
    JournalWriterOptions options;
    Result<JournalWriter> writer =
        JournalWriter::Open(path, TestHeader(), options);
    if (!writer.ok()) ::_exit(4);
    if (!writer->Append(CellRecord(1, 2, Answer::kYes, 3.0)).ok()) {
      ::_exit(5);
    }
    writer->Append(CellRecord(4, 0, Answer::kNo, 5.5)).IgnoreError();
    ::_exit(6);  // unreachable: the torn write _Exits with the crash code
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), FaultRegistry::kCrashExitCode);

  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->torn_tail);
  ASSERT_EQ(loaded->records.size(), 1u);
  EXPECT_TRUE(loaded->records[0] == CellRecord(1, 2, Answer::kYes, 3.0));

  // And the journal resumes: truncate the tear, finish the session.
  JournalWriterOptions options;
  options.resume = true;
  options.resume_offset = loaded->resume_offset;
  Result<JournalWriter> writer =
      JournalWriter::Open(path, TestHeader(), options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append(CellRecord(4, 0, Answer::kNo, 5.5)).ok());
  ASSERT_TRUE(writer->AppendEnd(2, 8.5).ok());
  ASSERT_TRUE(writer->Close().ok());
  Result<LoadedJournal> resumed = LoadJournal(path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->records.size(), 2u);
  EXPECT_TRUE(resumed->finished);
  EXPECT_FALSE(resumed->torn_tail);
}

}  // namespace
}  // namespace uguide
