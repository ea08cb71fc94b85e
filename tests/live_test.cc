// The live-mutation subsystem: randomized mutation storms asserting the
// incrementally maintained partitions, violation graphs, and per-epoch
// sessions are byte-identical to a full rebuild at every epoch and any
// thread count; version-pinned journals; and the op=mutate /
// version_mismatch serving paths end to end.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/session_journal.h"
#include "core/session_state.h"
#include "discovery/partition.h"
#include "live/live_dataset.h"
#include "live/live_relation.h"
#include "live/mutation.h"
#include "oracle/simulated_expert.h"
#include "reference/hash_detector.h"
#include "server/protocol.h"
#include "server/session_manager.h"
#include "test_util.h"
#include "violations/bipartite_graph.h"
#include "violations/violation_engine.h"

namespace uguide {
namespace {

using ::uguide::testing::MakeHospitalSession;

// --- helpers ----------------------------------------------------------------

// A mixed batch of appends, updates, and deletes. Values are drawn from a
// small pool so mutations collide with existing groups (creating and
// healing violations) instead of always minting singletons; deletes of
// already-dead rows are allowed through on purpose — individual refusal is
// part of the contract under test.
MutationBatch RandomBatch(Rng& rng, TupleId num_rows, int num_attrs) {
  MutationBatch batch;
  const int ops = static_cast<int>(rng.NextInt(2, 5));
  for (int i = 0; i < ops; ++i) {
    switch (rng.NextBounded(3)) {
      case 0: {
        std::vector<std::string> values;
        for (int c = 0; c < num_attrs; ++c) {
          values.push_back("av" + std::to_string(rng.NextBounded(7)));
        }
        batch.ops.push_back(Mutation::Append(std::move(values)));
        break;
      }
      case 1:
        batch.ops.push_back(Mutation::Update(
            static_cast<TupleId>(rng.NextBounded(
                static_cast<uint64_t>(num_rows))),
            static_cast<int>(rng.NextBounded(
                static_cast<uint64_t>(num_attrs))),
            "uv" + std::to_string(rng.NextBounded(7))));
        break;
      default:
        batch.ops.push_back(Mutation::Delete(static_cast<TupleId>(
            rng.NextBounded(static_cast<uint64_t>(num_rows)))));
        break;
    }
  }
  return batch;
}

void ExpectPartitionsEqual(const Partition& got, const Partition& want,
                           const std::string& what) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << what;
  ASSERT_EQ(got.NumClasses(), want.NumClasses()) << what;
  ASSERT_EQ(got.StrippedSize(), want.StrippedSize()) << what;
  EXPECT_EQ(got.ApproxBytes(), want.ApproxBytes()) << what;
  for (size_t i = 0; i < got.offsets().size(); ++i) {
    ASSERT_EQ(got.offsets()[i], want.offsets()[i]) << what << " offset " << i;
  }
  for (size_t i = 0; i < got.elements().size(); ++i) {
    ASSERT_EQ(got.elements()[i], want.elements()[i]) << what << " elem " << i;
  }
}

void ExpectGraphsEqual(const ViolationGraph& got, const ViolationGraph& want,
                       const std::string& what) {
  ASSERT_EQ(got.NumFds(), want.NumFds()) << what;
  ASSERT_EQ(got.NumCells(), want.NumCells()) << what;
  EXPECT_EQ(got.ApproxMemoryBytes(), want.ApproxMemoryBytes()) << what;
  const GraphView got_view(got);
  const GraphView want_view(want);
  for (FdId f = 0; f < got.NumFds(); ++f) {
    ASSERT_TRUE(got.fd(f) == want.fd(f)) << what << " fd " << f;
    ASSERT_EQ(got_view.ActiveDegreeOfFd(f), want_view.ActiveDegreeOfFd(f))
        << what;
    const auto a = got.CellsOfFd(f);
    const auto b = want.CellsOfFd(f);
    ASSERT_EQ(a.size(), b.size()) << what << " fd " << f;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << what << " fd " << f << " edge " << i;
    }
  }
  for (CellId c = 0; c < got.NumCells(); ++c) {
    ASSERT_TRUE(got.cell(c) == want.cell(c)) << what << " cell " << c;
    ASSERT_EQ(got_view.ActiveDegreeOfCell(c), want_view.ActiveDegreeOfCell(c))
        << what;
    const auto a = got.FdsOfCell(c);
    const auto b = want.FdsOfCell(c);
    ASSERT_EQ(a.size(), b.size()) << what << " cell " << c;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << what << " cell " << c << " edge " << i;
    }
  }
}

// --- fixture ----------------------------------------------------------------

class LiveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    session_ = new Session(MakeHospitalSession(200, ErrorModel::kSystematic,
                                               /*error_rate=*/0.15,
                                               /*seed=*/5,
                                               /*idk_rate=*/0.1));
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }

  static Answer AnswerQuestion(SimulatedExpert& expert,
                               const SessionQuestion& question) {
    switch (question.kind) {
      case QuestionKind::kCell:
        return expert.IsCellErroneous(question.cell);
      case QuestionKind::kTuple:
        return expert.IsTupleClean(question.row);
      case QuestionKind::kFd:
        return expert.IsFdValid(question.fd);
    }
    return Answer::kIdk;
  }

  static SimulatedExpert MakeExpert() {
    const SessionConfig& config = session_->config();
    return SimulatedExpert(&session_->true_violations(), &session_->truth(),
                           session_->dirty().NumAttributes(),
                           session_->true_fds(), config.idk_rate,
                           config.expert_seed, config.wrong_rate);
  }

  static std::string MakeJournalDir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
  }

  static std::string OpenLine(const std::string& id,
                              const std::string& strategy, double budget,
                              bool resume = false) {
    ClientFrame open;
    open.op = ClientOp::kOpen;
    open.id = id;
    open.strategy = strategy;
    open.budget = budget;
    open.has_budget = true;
    open.resume = resume;
    return FormatClientFrame(open);
  }

  static std::string AnswerLine(const std::string& id, int seq,
                                Answer answer) {
    ClientFrame frame;
    frame.op = ClientOp::kAnswer;
    frame.id = id;
    frame.seq = seq;
    frame.answer = answer;
    return FormatClientFrame(frame);
  }

  static std::string MutateLine(const std::string& id,
                                std::vector<Mutation> ops) {
    ClientFrame frame;
    frame.op = ClientOp::kMutate;
    frame.id = id;
    frame.mutations = std::move(ops);
    return FormatClientFrame(frame);
  }

  static ServerFrame One(const std::vector<std::string>& replies) {
    EXPECT_EQ(replies.size(), 1u);
    return ParseServerFrame(replies.at(0)).ValueOrDie();
  }

  // Drives a served session to its report and returns the serialized
  // report payload.
  static std::string RunToReport(SessionManager& manager,
                                 const std::string& open_line) {
    SimulatedExpert expert = MakeExpert();
    ServerFrame frame = One(manager.HandleLine(open_line));
    int rounds = 0;
    while (frame.type == ServerFrameType::kQuestion) {
      EXPECT_LT(++rounds, 10000);
      const Answer answer = AnswerQuestion(expert, frame.question);
      frame = One(manager.HandleLine(
          AnswerLine(frame.id, frame.question.index, answer)));
    }
    EXPECT_EQ(frame.type, ServerFrameType::kReport);
    return frame.report;
  }

  static Session* session_;
};

Session* LiveTest::session_ = nullptr;

// --- LiveRelation: group index vs canonical partitions ----------------------

TEST_F(LiveTest, RelationPartitionsMatchForColumnUnderStorm) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    LiveRelation live(session_->dirty());
    Rng rng(seed);
    const int m = live.relation().NumAttributes();
    for (int batch = 0; batch < 8; ++batch) {
      const MutationBatch mixed = RandomBatch(rng, live.NumRows(), m);
      const MutationReceipt receipt = live.Apply(mixed);
      ASSERT_EQ(receipt.applied + receipt.refused,
                static_cast<int>(mixed.ops.size()));
      for (int col = 0; col < m; ++col) {
        ExpectPartitionsEqual(
            live.ColumnPartition(col),
            Partition::ForColumn(live.relation(), col),
            "seed " + std::to_string(seed) + " batch " +
                std::to_string(batch) + " col " + std::to_string(col));
      }
    }
    EXPECT_GT(live.version(), 0u);
    EXPECT_LE(live.NumAlive(), live.NumRows());
  }
}

TEST_F(LiveTest, RelationRefusesInvalidOpsIndividually) {
  LiveRelation live(session_->dirty());
  const TupleId victim = 3;

  MutationBatch batch;
  batch.ops.push_back(Mutation::Delete(victim));
  batch.ops.push_back(Mutation::Delete(victim));         // dead row
  batch.ops.push_back(Mutation::Update(victim, 0, "x")); // dead row
  batch.ops.push_back(Mutation::Update(-1, 0, "x"));     // out of range
  batch.ops.push_back(Mutation::Append({"only-one"}));   // arity mismatch
  batch.ops.push_back(Mutation::Update(4, 1, "ok"));
  const MutationReceipt receipt = live.Apply(batch);
  EXPECT_EQ(receipt.applied, 2);
  EXPECT_EQ(receipt.refused, 4);
  EXPECT_EQ(receipt.version, 1u);
  EXPECT_FALSE(live.Alive(victim));

  // A fully refused batch leaves the version untouched.
  MutationBatch refused;
  refused.ops.push_back(Mutation::Delete(victim));
  const MutationReceipt again = live.Apply(refused);
  EXPECT_EQ(again.applied, 0);
  EXPECT_EQ(again.refused, 1);
  EXPECT_EQ(again.version, 1u);
  EXPECT_EQ(live.version(), 1u);
}

// --- LiveDataset: incremental epochs vs full rebuild ------------------------

TEST_F(LiveTest, StormEpochsMatchFullRebuildAtAnyThreadCount) {
  ThreadPool pool(4);
  const std::vector<std::string> strategies = KnownStrategyNames();
  ASSERT_EQ(strategies.size(), 11u);

  for (uint64_t seed : {21u, 22u, 23u}) {
    LiveDataset serial(session_, 0xfeed, nullptr);
    LiveDataset pooled(session_, 0xfeed, &pool);

    Rng rng(seed);
    const int m = session_->dirty().NumAttributes();
    for (int epoch = 1; epoch <= 4; ++epoch) {
      const MutationBatch batch =
          RandomBatch(rng, serial.Current()->session->dirty().NumRows(), m);
      const MutationReceipt sr = serial.Apply(batch);
      const MutationReceipt pr = pooled.Apply(batch);
      ASSERT_EQ(sr.applied, pr.applied);
      ASSERT_EQ(sr.version, pr.version);
      if (sr.applied == 0) continue;

      const std::string tag =
          "seed " + std::to_string(seed) + " epoch " + std::to_string(epoch);
      const std::shared_ptr<const LiveEpoch> cur = serial.Current();
      const Relation& mutated = cur->session->dirty();

      // Patched column partitions vs recomputation from the mutated bytes.
      for (int col = 0; col < m; ++col) {
        std::shared_ptr<const Partition> patched =
            cur->engine->LhsPartition(AttributeSet::Single(col));
        ASSERT_NE(patched, nullptr);
        ExpectPartitionsEqual(*patched,
                              Partition::ForColumn(mutated, col),
                              tag + " col " + std::to_string(col));
      }

      // Delta-maintained graph vs full rebuild and the scalar oracle.
      ViolationEngine fresh(&mutated);
      const ViolationGraph rebuilt =
          ViolationGraph::Build(fresh, session_->candidates(), nullptr);
      ExpectGraphsEqual(cur->graph(), rebuilt, tag + " rebuild");
      ExpectGraphsEqual(
          cur->graph(),
          BuildReferenceGraph(mutated, session_->candidates()),
          tag + " reference");
      ExpectGraphsEqual(pooled.Current()->graph(), rebuilt, tag + " pooled");

      // Every strategy's report from the live epoch session matches a
      // from-scratch rebase over the same mutated bytes.
      Session reference = Session::Rebase(*session_, Relation(mutated));
      for (const std::string& name : strategies) {
        auto live_strategy = MakeStrategyByName(name).ValueOrDie();
        auto ref_strategy = MakeStrategyByName(name).ValueOrDie();
        EXPECT_EQ(
            SerializeSessionReport(cur->session->Run(*live_strategy, 6.0)),
            SerializeSessionReport(reference.Run(*ref_strategy, 6.0)))
            << tag << " strategy " << name;
      }
    }

    const LiveDataset::Stats stats = serial.stats();
    EXPECT_GT(stats.batches_applied, 0);
    EXPECT_GT(stats.ops_applied, 0);
    EXPECT_EQ(stats.fds_recomputed + stats.fds_skipped,
              stats.batches_applied * static_cast<int64_t>(
                                          session_->candidates().Size()));
  }
}

TEST_F(LiveTest, UpdateOnlyBatchesSkipUntouchedFds) {
  LiveDataset live(session_, 0xbeef, nullptr);

  MutationBatch batch;
  batch.ops.push_back(Mutation::Update(0, 0, "solo"));
  const MutationReceipt receipt = live.Apply(batch);
  ASSERT_EQ(receipt.applied, 1);
  EXPECT_TRUE(receipt.scope.attrs.Contains(0));

  // A single-column update must not recompute FDs over other columns.
  const LiveDataset::Stats stats = live.stats();
  EXPECT_GT(stats.fds_skipped, 0);
  EXPECT_LT(stats.fds_recomputed,
            static_cast<int64_t>(session_->candidates().Size()));
}

TEST_F(LiveTest, EpochRingEvictsOldVersions) {
  LiveDatasetOptions options;
  options.epoch_ring = 2;
  LiveDataset live(session_, 0xabc, nullptr, options);

  ASSERT_NE(live.AtVersion(0), nullptr);
  for (int i = 0; i < 3; ++i) {
    MutationBatch batch;
    batch.ops.push_back(Mutation::Update(i, 0, "ring" + std::to_string(i)));
    ASSERT_EQ(live.Apply(batch).applied, 1);
  }
  EXPECT_EQ(live.Current()->version, 3u);
  EXPECT_EQ(live.AtVersion(0), nullptr);
  EXPECT_EQ(live.AtVersion(1), nullptr);
  ASSERT_NE(live.AtVersion(2), nullptr);
  EXPECT_EQ(live.AtVersion(2)->version, 2u);

  // A pinned epoch outlives its ring eviction.
  std::shared_ptr<const LiveEpoch> pinned = live.AtVersion(2);
  MutationBatch batch;
  batch.ops.push_back(Mutation::Update(9, 0, "past"));
  ASSERT_EQ(live.Apply(batch).applied, 1);
  EXPECT_EQ(live.AtVersion(2), nullptr);
  EXPECT_EQ(pinned->version, 2u);
  // Lazy materialization still works after the ring moved on: the pinned
  // epoch owns its merge inputs.
  EXPECT_GT(pinned->graph().NumFds(), 0);
}

// --- version-pinned journals ------------------------------------------------

TEST_F(LiveTest, JournalHeaderPinsContentHashAndDataVersion) {
  JournalHeader header;
  header.strategy_name = "FDQ-BMC";
  header.budget = 8.0;
  header.expert_seed = 7;

  // Pre-live journals (both pins zero) must stay byte-identical: no
  // dhash/dver fields appear.
  EXPECT_EQ(FormatJournalHeader(header).find("dhash="), std::string::npos);
  EXPECT_EQ(FormatJournalHeader(header).find("dver="), std::string::npos);

  header.content_hash = 0xdeadbeefcafe1234ull;
  header.data_version = 42;
  const std::string line = FormatJournalHeader(header);
  EXPECT_NE(line.find("dhash="), std::string::npos);
  EXPECT_NE(line.find("dver=42"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/live_pin.journal";
  {
    std::ofstream out(path, std::ios::trunc);
    out << line << "\n";
  }
  const JournalHeader peeked = PeekJournalHeader(path).ValueOrDie();
  EXPECT_EQ(peeked.content_hash, header.content_hash);
  EXPECT_EQ(peeked.data_version, header.data_version);
  EXPECT_TRUE(peeked.Matches(header));

  JournalHeader moved = header;
  moved.data_version = 43;
  EXPECT_FALSE(peeked.Matches(moved));
  const Status mismatch = ValidateJournalHeader(moved, peeked);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.message().find("dver"), std::string::npos);

  JournalHeader rehashed = header;
  rehashed.content_hash = 1;
  const Status wrong_data = ValidateJournalHeader(rehashed, peeked);
  EXPECT_FALSE(wrong_data.ok());
  EXPECT_NE(wrong_data.message().find("dhash"), std::string::npos);
}

// --- serving integration ----------------------------------------------------

TEST_F(LiveTest, MutateFramesRoundTripOnTheWire) {
  const std::string line = MutateLine(
      "w1", {Mutation::Append({"a", "b"}), Mutation::Update(4, 1, "v"),
             Mutation::Delete(9)});
  const ClientFrame frame = ParseClientFrame(line).ValueOrDie();
  EXPECT_EQ(frame.op, ClientOp::kMutate);
  ASSERT_EQ(frame.mutations.size(), 3u);
  EXPECT_EQ(frame.mutations[0].kind, MutationKind::kAppend);
  ASSERT_EQ(frame.mutations[0].values.size(), 2u);
  EXPECT_EQ(frame.mutations[1].kind, MutationKind::kUpdate);
  EXPECT_EQ(frame.mutations[1].row, 4);
  EXPECT_EQ(frame.mutations[1].col, 1);
  EXPECT_EQ(frame.mutations[1].value, "v");
  EXPECT_EQ(frame.mutations[2].kind, MutationKind::kDelete);
  EXPECT_EQ(frame.mutations[2].row, 9);
  EXPECT_EQ(FormatClientFrame(frame), line);

  const ServerFrame mutated =
      ParseServerFrame(FormatMutatedFrame("w1", 7, 2, 1)).ValueOrDie();
  EXPECT_EQ(mutated.type, ServerFrameType::kMutated);
  EXPECT_EQ(mutated.version, 7u);
  EXPECT_EQ(mutated.applied, 2);
  EXPECT_EQ(mutated.refused, 1);

  // Hostile mutate frames are refused, not crashed on.
  EXPECT_FALSE(ParseClientFrame("{\"op\":\"mutate\",\"id\":\"x\"}").ok());
  EXPECT_FALSE(
      ParseClientFrame("{\"op\":\"mutate\",\"id\":\"x\",\"ops\":[]}").ok());
  EXPECT_FALSE(ParseClientFrame("{\"op\":\"mutate\",\"id\":\"x\",\"ops\":"
                                "[{\"kind\":\"truncate\"}]}")
                   .ok());
  EXPECT_FALSE(ParseClientFrame("{\"op\":\"mutate\",\"id\":\"x\",\"ops\":"
                                "[{\"kind\":\"update\",\"row\":-1,"
                                "\"col\":0,\"value\":\"v\"}]}")
                   .ok());
}

TEST_F(LiveTest, ManagerAppliesMutationsAndStampsReports) {
  LiveDataset live(session_, 0x5117, nullptr);

  SessionManagerOptions options;
  options.live = &live;
  SessionManager manager(session_, options);

  ServerFrame reply = One(manager.HandleLine(
      MutateLine("c1", {Mutation::Update(0, 0, "m1"),
                        Mutation::Update(1, 1, "m2")})));
  EXPECT_EQ(reply.type, ServerFrameType::kMutated);
  EXPECT_EQ(reply.version, 1u);
  EXPECT_EQ(reply.applied, 2);
  EXPECT_EQ(reply.refused, 0);

  reply = One(manager.HandleLine(
      MutateLine("c1", {Mutation::Delete(5), Mutation::Delete(5)})));
  EXPECT_EQ(reply.type, ServerFrameType::kMutated);
  EXPECT_EQ(reply.version, 2u);
  EXPECT_EQ(reply.applied, 1);
  EXPECT_EQ(reply.refused, 1);

  // A session opened now serves the mutated epoch and says so.
  const std::string report =
      RunToReport(manager, OpenLine("c2", "FDQ-BMC", 8.0));
  EXPECT_NE(report.find("data_version=2\n"), std::string::npos);

  // Without a live dataset, op=mutate is a structured refusal.
  SessionManager frozen(session_, {});
  const ServerFrame refused = One(frozen.HandleLine(
      MutateLine("c3", {Mutation::Delete(0)})));
  EXPECT_EQ(refused.type, ServerFrameType::kError);
}

TEST_F(LiveTest, ResumeAgainstEvictedVersionIsRefusedWithVersionMismatch) {
  LiveDatasetOptions live_options;
  live_options.epoch_ring = 2;
  LiveDataset live(session_, 0x90, nullptr, live_options);

  SessionManagerOptions options;
  options.live = &live;
  options.journal_dir = MakeJournalDir("live_vm");

  // Start a journaled session against version 0, answer one question,
  // then abandon it (manager teardown keeps the journal).
  {
    SessionManager manager(session_, options);
    SimulatedExpert expert = MakeExpert();
    ServerFrame frame =
        One(manager.HandleLine(OpenLine("vm", "FDQ-BMC", 8.0)));
    ASSERT_EQ(frame.type, ServerFrameType::kQuestion);
    frame = One(manager.HandleLine(AnswerLine(
        "vm", frame.question.index, AnswerQuestion(expert, frame.question))));
    ASSERT_EQ(frame.type, ServerFrameType::kQuestion);
  }

  // Two applied batches push version 0 out of a ring of two.
  for (int i = 0; i < 2; ++i) {
    MutationBatch batch;
    batch.ops.push_back(Mutation::Update(i, 0, "gone" + std::to_string(i)));
    ASSERT_EQ(live.Apply(batch).applied, 1);
  }
  ASSERT_EQ(live.AtVersion(0), nullptr);

  SessionManager manager(session_, options);
  const ServerFrame refused =
      One(manager.HandleLine(OpenLine("vm", "FDQ-BMC", 8.0, /*resume=*/true)));
  EXPECT_EQ(refused.type, ServerFrameType::kError);
  EXPECT_EQ(refused.error_code, error_code::kVersionMismatch);

  // A journal pinned to a version the ring still holds resumes fine: open
  // at the current version, abandon, mutate once (ring keeps it), resume.
  {
    SessionManager m2(session_, options);
    SimulatedExpert expert = MakeExpert();
    ServerFrame frame = One(m2.HandleLine(OpenLine("ok", "FDQ-BMC", 8.0)));
    ASSERT_EQ(frame.type, ServerFrameType::kQuestion);
    frame = One(m2.HandleLine(AnswerLine(
        "ok", frame.question.index, AnswerQuestion(expert, frame.question))));
    ASSERT_EQ(frame.type, ServerFrameType::kQuestion);
  }
  MutationBatch one;
  one.ops.push_back(Mutation::Update(3, 0, "still-here"));
  ASSERT_EQ(live.Apply(one).applied, 1);

  SessionManager m3(session_, options);
  const ServerFrame resumed =
      One(m3.HandleLine(OpenLine("ok", "FDQ-BMC", 8.0, /*resume=*/true)));
  EXPECT_TRUE(resumed.type == ServerFrameType::kQuestion ||
              resumed.type == ServerFrameType::kReport)
      << "resume against a retained version must not be refused";
}

}  // namespace
}  // namespace uguide
