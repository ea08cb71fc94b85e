// Fault-injection registry, session journal, retry stack, and the
// kill/resume determinism contract: a session crashed after any question k
// and resumed from its journal must finish with a report bit-identical to
// an uninterrupted run.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/cell_strategies.h"
#include "core/fd_strategies.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "core/tuple_strategies.h"
#include "common/fault_injection.h"
#include "oracle/resilient_expert.h"
#include "test_util.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

// Every test leaves the process-global registry clean.
class FaultRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// --- Fault plan parsing -----------------------------------------------------

TEST_F(FaultRegistryTest, ParsesPlanClauses) {
  FaultRegistry& reg = FaultRegistry::Global();
  ASSERT_TRUE(reg.LoadPlan("oracle.answer=unavailable@1-3; seed=9;"
                           "disk.write=latency:25@p0.5;"
                           "session.record=crash@4")
                  .ok());
  EXPECT_TRUE(reg.enabled());
  std::vector<FaultRule> rules = reg.rules();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].site, "oracle.answer");
  EXPECT_EQ(rules[0].action, FaultAction::kUnavailable);
  EXPECT_EQ(rules[0].first_hit, 1);
  EXPECT_EQ(rules[0].last_hit, 3);
  EXPECT_EQ(rules[1].site, "disk.write");
  EXPECT_EQ(rules[1].action, FaultAction::kLatency);
  EXPECT_EQ(rules[1].latency_ms, 25.0);
  EXPECT_TRUE(rules[1].probabilistic);
  EXPECT_EQ(rules[1].probability, 0.5);
  EXPECT_EQ(rules[2].action, FaultAction::kCrash);
  EXPECT_EQ(rules[2].first_hit, 4);
  EXPECT_EQ(rules[2].last_hit, 4);
}

TEST_F(FaultRegistryTest, RejectsMalformedPlans) {
  FaultRegistry& reg = FaultRegistry::Global();
  EXPECT_FALSE(reg.LoadPlan("site").ok());
  EXPECT_FALSE(reg.LoadPlan("site=explode").ok());
  EXPECT_FALSE(reg.LoadPlan("site=latency").ok());
  EXPECT_FALSE(reg.LoadPlan("site=unavailable@").ok());
  EXPECT_FALSE(reg.LoadPlan("site=unavailable@5-3").ok());
  EXPECT_FALSE(reg.LoadPlan("seed=abc").ok());
  EXPECT_FALSE(reg.enabled());  // a failed load leaves the registry off
}

TEST_F(FaultRegistryTest, RejectsNumericallyHostilePlans) {
  // Fuzz-surfaced hardening (also under fuzz/corpus/fault_plan): values
  // that parse as doubles but whose later use was UB must fail the load.
  FaultRegistry& reg = FaultRegistry::Global();
  EXPECT_FALSE(reg.LoadPlan("seed=1e300").ok());   // u64 cast overflowed
  EXPECT_FALSE(reg.LoadPlan("seed=-1").ok());
  EXPECT_FALSE(reg.LoadPlan("x=latency:inf").ok());   // clock cast UB
  EXPECT_FALSE(reg.LoadPlan("x=latency:1e300").ok());
  EXPECT_FALSE(reg.LoadPlan("x=latency:nan").ok());
  EXPECT_FALSE(reg.LoadPlan("x=unavailable@pnan").ok());  // NaN probability
  EXPECT_FALSE(reg.enabled());
  // Sane numeric values still load.
  EXPECT_TRUE(reg.LoadPlan("seed=18446744073709551615").ok());
  EXPECT_TRUE(reg.LoadPlan("x=latency:50.5").ok());
}

TEST_F(FaultRegistryTest, EmptyPlanDisables) {
  FaultRegistry& reg = FaultRegistry::Global();
  ASSERT_TRUE(reg.LoadPlan("x=unavailable").ok());
  EXPECT_TRUE(reg.enabled());
  ASSERT_TRUE(reg.LoadPlan("").ok());
  EXPECT_FALSE(reg.enabled());
}

// --- Fault firing -----------------------------------------------------------

TEST_F(FaultRegistryTest, HitRangeTriggerFiresOnExactHits) {
  FaultRegistry& reg = FaultRegistry::Global();
  ASSERT_TRUE(reg.LoadPlan("x=unavailable@2-3").ok());
  EXPECT_TRUE(reg.OnPoint("x").ok());  // hit 1
  Status second = reg.OnPoint("x");    // hit 2
  EXPECT_TRUE(second.IsUnavailable());
  EXPECT_TRUE(reg.OnPoint("x").IsUnavailable());  // hit 3
  EXPECT_TRUE(reg.OnPoint("x").ok());             // hit 4
  EXPECT_EQ(reg.HitCount("x"), 4);
  EXPECT_EQ(reg.HitCount("other"), 0);
}

TEST_F(FaultRegistryTest, OpenEndedTriggerFiresFromHitOn) {
  FaultRegistry& reg = FaultRegistry::Global();
  ASSERT_TRUE(reg.LoadPlan("x=unavailable@3+").ok());
  EXPECT_TRUE(reg.OnPoint("x").ok());
  EXPECT_TRUE(reg.OnPoint("x").ok());
  EXPECT_TRUE(reg.OnPoint("x").IsUnavailable());
  EXPECT_TRUE(reg.OnPoint("x").IsUnavailable());
}

TEST_F(FaultRegistryTest, LatencyAdvancesVirtualClockOnly) {
  FaultRegistry& reg = FaultRegistry::Global();
  ASSERT_TRUE(reg.LoadPlan("slow=latency:250").ok());
  const auto before = reg.Now();
  EXPECT_TRUE(reg.OnPoint("slow").ok());  // latency is not a failure
  const double advanced_ms =
      std::chrono::duration<double, std::milli>(reg.Now() - before).count();
  // The virtual clock jumped by the injected latency without sleeping;
  // allow real elapsed time on top.
  EXPECT_GE(advanced_ms, 250.0);
  EXPECT_LT(advanced_ms, 1250.0);
}

TEST_F(FaultRegistryTest, ProbabilisticTriggerIsSeedDeterministic) {
  FaultRegistry& reg = FaultRegistry::Global();
  auto pattern = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!reg.OnPoint("p").ok());
    return fired;
  };
  ASSERT_TRUE(reg.LoadPlan("p=unavailable@p0.4;seed=7").ok());
  const std::vector<bool> first = pattern();
  ASSERT_TRUE(reg.LoadPlan("p=unavailable@p0.4;seed=7").ok());
  EXPECT_EQ(pattern(), first);
  int fired = 0;
  for (bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 10);  // ~0.4 * 64 = 25.6
  EXPECT_LT(fired, 45);
}

// --- Journal format ---------------------------------------------------------

TEST(JournalFormatTest, RecordsRoundTripExactly) {
  JournalRecord cell;
  cell.kind = QuestionKind::kCell;
  cell.cell = Cell{123, 4};
  cell.answer = Answer::kYes;
  cell.cost = 0.1 + 0.2;  // not representable: hexfloat must round-trip it

  JournalRecord tuple;
  tuple.kind = QuestionKind::kTuple;
  tuple.row = 77;
  tuple.answer = Answer::kIdk;
  tuple.cost = 15.0;

  JournalRecord fd;
  fd.kind = QuestionKind::kFd;
  fd.fd = Fd({0, 2, 5}, 3);
  fd.answer = Answer::kNo;
  fd.cost = 12.75;

  for (const JournalRecord& record : {cell, tuple, fd}) {
    Result<JournalRecord> parsed =
        ParseJournalRecord(FormatJournalRecord(record));
    ASSERT_TRUE(parsed.ok()) << FormatJournalRecord(record);
    EXPECT_TRUE(*parsed == record) << FormatJournalRecord(record);
  }
}

TEST(JournalFormatTest, HeaderRoundTripsExactly) {
  JournalHeader header;
  header.strategy_name = "FDQ-BMC";
  header.budget = 123.456;
  header.expert_seed = 987654321;
  header.expert_votes = 3;
  header.idk_rate = 0.1;
  header.wrong_rate = 0.05;
  Result<JournalHeader> parsed =
      ParseJournalHeader(FormatJournalHeader(header), "test");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Matches(header));
  header.budget += 1.0;
  EXPECT_FALSE(parsed->Matches(header));
}

TEST(JournalFormatTest, RejectsMalformedRecords) {
  EXPECT_FALSE(ParseJournalRecord("").ok());
  EXPECT_FALSE(ParseJournalRecord("z 1 2 yes 0x1p+0").ok());
  EXPECT_FALSE(ParseJournalRecord("c 1 yes 0x1p+0").ok());
  EXPECT_FALSE(ParseJournalRecord("c 1 2 maybe 0x1p+0").ok());
  EXPECT_FALSE(ParseJournalRecord("t 5 yes nonsense").ok());
}

TEST(JournalFileTest, WriterProducesLoadableJournal) {
  const std::string path = ::testing::TempDir() + "/uguide_journal_rt.log";
  JournalHeader header;
  header.strategy_name = "test";
  header.budget = 50.0;
  JournalRecord record;
  record.kind = QuestionKind::kTuple;
  record.row = 9;
  record.answer = Answer::kNo;
  record.cost = 15.0;
  {
    Result<JournalWriter> writer =
        JournalWriter::Open(path, header, JournalWriterOptions{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(record).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->header.Matches(header));
  ASSERT_EQ(loaded->records.size(), 1u);
  EXPECT_TRUE(loaded->records[0] == record);
  EXPECT_FALSE(loaded->torn_tail);
}

// The header every hand-written journal below opens with.
std::string TestJournalHeaderLine() {
  JournalHeader header;
  header.strategy_name = "s";
  header.budget = 32.0;
  header.expert_seed = 1;
  return FormatJournalHeader(header) + "\n";
}

void WriteJournalText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

TEST(JournalFileTest, TornTailIsDroppedNotFatal) {
  const std::string path = ::testing::TempDir() + "/uguide_journal_torn.log";
  // Torn mid-write: the last frame stops inside its payload, no newline.
  const std::string torn = FormatJournalFrame("c 1 2 no 0x1p+0");
  WriteJournalText(path, TestJournalHeaderLine() +
                             FormatJournalFrame("t 3 yes 0x1.ep+3") + "\n" +
                             torn.substr(0, torn.size() - 2));
  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), 1u);
  EXPECT_TRUE(loaded->torn_tail);
}

TEST(JournalFileTest, MidFileCorruptionIsFatal) {
  const std::string path = ::testing::TempDir() + "/uguide_journal_bad.log";
  WriteJournalText(path, TestJournalHeaderLine() + "garbage line\n" +
                             FormatJournalFrame("t 3 yes 0x1.ep+3") + "\n");
  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos)
      << loaded.status().message();
}

TEST(JournalHeaderTest, ValidateNamesFirstMismatchingField) {
  JournalHeader expected;
  expected.strategy_name = "fd-budgeted-max-coverage";
  expected.budget = 500.0;
  expected.expert_seed = 11;
  expected.expert_votes = 1;

  EXPECT_TRUE(ValidateJournalHeader(expected, expected).ok());

  JournalHeader wrong_seed = expected;
  wrong_seed.expert_seed = 12;
  Status st = ValidateJournalHeader(expected, wrong_seed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Descriptive: names the field and both values, so a failed resume says
  // exactly which knob diverged.
  EXPECT_NE(st.message().find("field 'seed'"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("expected 11"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("found 12"), std::string::npos) << st.message();

  JournalHeader wrong_strategy = expected;
  wrong_strategy.strategy_name = "cell-q-sums";
  st = ValidateJournalHeader(expected, wrong_strategy);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("field 'strategy'"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("cell-q-sums"), std::string::npos)
      << st.message();

  JournalHeader wrong_budget = expected;
  wrong_budget.budget = 750.0;
  st = ValidateJournalHeader(expected, wrong_budget);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("field 'budget'"), std::string::npos)
      << st.message();
}

TEST(JournalParseTest, RejectsHostileRecords) {
  const std::string header = TestJournalHeaderLine();
  // Each of these once crashed (or DCHECK-aborted) the loader instead of
  // failing cleanly; they are also checked in under fuzz/corpus/journal.
  // Framed with a valid length and checksum, so they reach
  // ParseJournalRecord itself.
  const char* kHostile[] = {
      "c -2147483648 0 yes 0x0p+0",  // negation overflow in ParseInt
      "f 0 99 yes 0x0p+0",           // rhs out of AttributeSet range
      "c 1 9999999999 yes 0x0p+0",   // col overflows int
      "t -5 yes 0x0p+0",             // negative row
      "f zz 1 yes 0x0p+0",           // non-hex mask
  };
  for (const char* payload : kHostile) {
    const std::string frame = FormatJournalFrame(payload);
    // Terminated, the write completed: a record that fails to parse is
    // in-place damage, alone or followed by a valid record.
    for (const std::string& text :
         {header + frame + "\n",
          header + frame + "\n" + FormatJournalFrame("t 3 yes 0x1p+0") +
              "\n"}) {
      Result<LoadedJournal> strict = ParseJournalText(text, "test");
      ASSERT_FALSE(strict.ok()) << payload;
      EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss) << payload;
    }
    // Unterminated, it is what a torn write leaves: dropped, load succeeds.
    Result<LoadedJournal> torn = ParseJournalText(header + frame, "test");
    ASSERT_TRUE(torn.ok()) << payload << ": " << torn.status().ToString();
    EXPECT_TRUE(torn->torn_tail) << payload;
    EXPECT_TRUE(torn->records.empty()) << payload;
  }
}

// --- Retry / degradation ----------------------------------------------------

TEST_F(FaultRegistryTest, PermanentUnavailabilityDegradesToIdk) {
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("oracle.answer=unavailable").ok());
  Session session = MakeHospitalSession(400);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionRunOptions options;
  options.resilient = true;
  Result<SessionReport> report = session.Run(*strategy, 60.0, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every question exhausted its retries and degraded to "I don't know" —
  // the session completed instead of failing.
  EXPECT_GT(report->result.questions_asked, 0);
  EXPECT_EQ(report->questions_exhausted, report->result.questions_asked);
  EXPECT_EQ(report->result.accepted_fds.Size(), 0u);
  // Retries carry an honest surcharge.
  EXPECT_GT(report->retry_cost, 0.0);
  EXPECT_GT(report->result.cost_spent, 0.0);
}

TEST_F(FaultRegistryTest, TransientUnavailabilityIsRetriedThrough) {
  // Only the first two answers fail; retries absorb them and the session
  // matches the fault-free run.
  Session session = MakeHospitalSession(400);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionReport baseline = session.Run(*strategy, 60.0);

  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("oracle.answer=unavailable@1-2").ok());
  SessionRunOptions options;
  options.resilient = true;
  Result<SessionReport> report = session.Run(*strategy, 60.0, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->questions_exhausted, 0);
  EXPECT_GT(report->retry_cost, 0.0);
  EXPECT_EQ(report->result.questions_asked, baseline.result.questions_asked);
  EXPECT_EQ(report->result.accepted_fds.fds(),
            baseline.result.accepted_fds.fds());
  // Nominal spend plus the surcharge for the two retried answers.
  EXPECT_EQ(report->result.cost_spent - report->retry_cost,
            baseline.result.cost_spent);
}

TEST_F(FaultRegistryTest, LatencyPastDeadlineTimesOut) {
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("oracle.answer=latency:50").ok());
  Session session = MakeHospitalSession(400);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionRunOptions options;
  options.resilient = true;
  options.retry.question_deadline_ms = 20.0;  // every answer arrives late
  Result<SessionReport> report = session.Run(*strategy, 60.0, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->result.questions_asked, 0);
  EXPECT_EQ(report->questions_exhausted, report->result.questions_asked);
  EXPECT_EQ(report->result.accepted_fds.Size(), 0u);
}

TEST_F(FaultRegistryTest, DiscoveryDeadlineTruncatesCandidates) {
  DataGenOptions data;
  data.rows = 300;
  data.seed = 5;
  Relation clean = GenerateHospital(data);

  // Injected latency pushes discovery past its deadline deterministically.
  ASSERT_TRUE(
      FaultRegistry::Global().LoadPlan("discovery.level=latency:100").ok());
  CandidateGenOptions options;
  options.max_lhs_size = 3;
  options.discovery_deadline_ms = 50.0;
  Result<CandidateSet> truncated = GenerateCandidates(clean, options);
  ASSERT_TRUE(truncated.ok());
  EXPECT_TRUE(truncated->truncated);

  // Same plan, no deadline: latency alone never truncates.
  options.discovery_deadline_ms = 0.0;
  Result<CandidateSet> full = GenerateCandidates(clean, options);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_GE(full->candidates.Size(), truncated->candidates.Size());
}

// --- Kill/resume determinism ------------------------------------------------

struct NamedStrategy {
  const char* label;
  std::unique_ptr<Strategy> (*make)();
};

std::unique_ptr<Strategy> MakeFd() { return MakeFdQBudgetedMaxCoverage({}); }
std::unique_ptr<Strategy> MakeCell() { return MakeCellQSums({}); }
std::unique_ptr<Strategy> MakeTuple() {
  return MakeTupleSamplingSaturationSets({});
}

// Crash the process (exit code 42, via the fault registry) right after the
// k-th journal record is durable, then resume from the journal and require
// a report bit-identical to the uninterrupted baseline.
void RunKillResume(const NamedStrategy& named, int k) {
  SCOPED_TRACE(std::string(named.label) + " crash@" + std::to_string(k));
  // idk_rate > 0 makes the expert's RNG state load-bearing: resume is only
  // bit-identical because replayed questions still advance the live expert.
  Session session = MakeHospitalSession(400, ErrorModel::kSystematic,
                                        /*error_rate=*/0.15, /*seed=*/5,
                                        /*idk_rate=*/0.1);
  auto strategy = named.make();
  const double budget = 60.0;
  SessionReport baseline = session.Run(*strategy, budget);

  const std::string path = ::testing::TempDir() + "/uguide_killresume_" +
                           named.label + "_" + std::to_string(k) + ".log";
  std::remove(path.c_str());

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: journal the run and die after record k. The session runs
    // single-threaded, so fork-without-exec is safe here.
    FaultRegistry::Global()
        .LoadPlan("session.record=crash@" + std::to_string(k))
        .IgnoreError();
    auto child_strategy = named.make();
    SessionRunOptions options;
    options.journal_path = path;
    Result<SessionReport> r = session.Run(*child_strategy, budget, options);
    // Fewer than k questions: the crash never fired, which is fine — the
    // journal is then simply complete.
    std::_Exit(r.ok() ? 0 : 3);
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  const int exit_code = WEXITSTATUS(wait_status);
  ASSERT_TRUE(exit_code == FaultRegistry::kCrashExitCode || exit_code == 0)
      << "child exited with " << exit_code;

  // Resume in this process (no fault plan loaded here).
  auto resumed_strategy = named.make();
  SessionRunOptions options;
  options.journal_path = path;
  options.resume = true;
  Result<SessionReport> resumed =
      session.Run(*resumed_strategy, budget, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  if (exit_code == FaultRegistry::kCrashExitCode) {
    EXPECT_EQ(resumed->questions_replayed, k);
  }

  // Bit-identical to the uninterrupted run.
  EXPECT_EQ(resumed->result.questions_asked, baseline.result.questions_asked);
  EXPECT_EQ(resumed->result.cost_spent, baseline.result.cost_spent);
  EXPECT_EQ(resumed->result.accepted_fds.fds(),
            baseline.result.accepted_fds.fds());
  EXPECT_EQ(resumed->metrics.detections, baseline.metrics.detections);
  EXPECT_EQ(resumed->metrics.true_positives, baseline.metrics.true_positives);
  EXPECT_EQ(resumed->metrics.false_positives,
            baseline.metrics.false_positives);
}

TEST(KillResumeTest, FdStrategyResumesBitIdentical) {
  for (int k : {1, 3, 8}) RunKillResume({"fd", &MakeFd}, k);
}

TEST(KillResumeTest, CellStrategyResumesBitIdentical) {
  for (int k : {1, 3, 8}) RunKillResume({"cell", &MakeCell}, k);
}

TEST(KillResumeTest, TupleStrategyResumesBitIdentical) {
  for (int k : {1, 3, 8}) RunKillResume({"tuple", &MakeTuple}, k);
}

// --- Resume validation ------------------------------------------------------

TEST(ResumeValidationTest, ResumeRequiresJournalPath) {
  Session session = MakeHospitalSession(400);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  SessionRunOptions options;
  options.resume = true;
  EXPECT_FALSE(session.Run(*strategy, 60.0, options).ok());
}

TEST(ResumeValidationTest, HeaderMismatchIsRejected) {
  Session session = MakeHospitalSession(400);
  auto strategy = MakeFdQBudgetedMaxCoverage({});
  const std::string path = ::testing::TempDir() + "/uguide_mismatch.log";
  SessionRunOptions record;
  record.journal_path = path;
  ASSERT_TRUE(session.Run(*strategy, 60.0, record).ok());

  SessionRunOptions resume;
  resume.journal_path = path;
  resume.resume = true;
  // Different budget: the journal no longer describes this run.
  Result<SessionReport> r = session.Run(*strategy, 61.0, resume);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("different session configuration"),
            std::string::npos)
      << r.status().ToString();
  // Matching configuration resumes fine.
  EXPECT_TRUE(session.Run(*strategy, 60.0, resume).ok());
}

TEST(ResumeValidationTest, JournaledRunMatchesPlainRun) {
  // Journaling must be observationally free: same questions, same report.
  Session session = MakeHospitalSession(400);
  auto strategy = MakeCellQSums({});
  SessionReport plain = session.Run(*strategy, 40.0);
  const std::string path = ::testing::TempDir() + "/uguide_journal_free.log";
  SessionRunOptions options;
  options.journal_path = path;
  Result<SessionReport> journaled = session.Run(*strategy, 40.0, options);
  ASSERT_TRUE(journaled.ok());
  EXPECT_EQ(journaled->result.cost_spent, plain.result.cost_spent);
  EXPECT_EQ(journaled->result.questions_asked, plain.result.questions_asked);
  EXPECT_EQ(journaled->result.accepted_fds.fds(),
            plain.result.accepted_fds.fds());
  // And the journal holds exactly the questions that were asked.
  Result<LoadedJournal> loaded = LoadJournal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(static_cast<int>(loaded->records.size()),
            plain.result.questions_asked);
}

}  // namespace
}  // namespace uguide
