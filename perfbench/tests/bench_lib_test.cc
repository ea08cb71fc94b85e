// Tests of the benchmark's own helpers (driver/bench_lib.h).
//
//   python3 perfbench/run.py --selftest

#include "driver/bench_lib.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(Iota(100), 90), 90);
  EXPECT_EQ(Percentile(Iota(1000), 99), 990);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileTest, SupportNeedsTenSamplesBeyond) {
  // p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_TRUE(PercentileSupported(100, 90));
  EXPECT_FALSE(PercentileSupported(99, 90));
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_FALSE(PercentileSupported(0, 50));
}

TEST(PercentileTest, HighestSupportedPercentile) {
  const std::vector<double> candidates = {90, 99, 99.9};
  EXPECT_LT(HighestSupportedPercentile(50, candidates), 0);
  EXPECT_EQ(HighestSupportedPercentile(100, candidates), 90);
  EXPECT_EQ(HighestSupportedPercentile(999, candidates), 90);
  EXPECT_EQ(HighestSupportedPercentile(1000, candidates), 99);
  EXPECT_EQ(HighestSupportedPercentile(10000, candidates), 99.9);
  // Candidate order does not matter.
  EXPECT_EQ(HighestSupportedPercentile(1000, {99.9, 99, 90}), 99);
}

Span MakeSpan(const char* name, int64_t start_ms, int64_t end_ms, int parent) {
  return Span{name, start_ms * 1000000, end_ms * 1000000, parent, 0};
}

TEST(SpanTest, SelfTimeSubtractsOverlappingChildrenOnce) {
  // root [0, 100] with children [10, 40] and [30, 60] (overlapping: their
  // union covers 50 ms) and [90, 120] (sticks out: only 10 ms count).
  const std::vector<Span> spans = {
      MakeSpan("bench.session", 0, 100, -1),
      MakeSpan("strategy.select", 10, 40, 0),
      MakeSpan("journal.append", 30, 60, 0),
      MakeSpan("protocol.parse", 90, 120, 0),
  };
  const std::vector<double> self = SelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 50 - 10);
  EXPECT_DOUBLE_EQ(self[1], 30);
  EXPECT_DOUBLE_EQ(self[2], 30);
  EXPECT_DOUBLE_EQ(self[3], 30);
}

TEST(SpanTest, NestedChildrenAndLayerTotals) {
  // root [0, 100] > manager.handle [0, 80] > strategy.select [20, 50];
  // grandchildren do not reduce the root's self time twice.
  const std::vector<Span> spans = {
      MakeSpan("bench.session", 0, 100, -1),
      MakeSpan("manager.handle", 0, 80, 0),
      MakeSpan("strategy.select", 20, 50, 1),
      MakeSpan("strategy.select", 60, 70, 1),
  };
  const std::map<std::string, double> layers = LayerSelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(layers.at("unattributed"), 20);
  EXPECT_DOUBLE_EQ(layers.at("manager"), 40);
  EXPECT_DOUBLE_EQ(layers.at("strategy"), 40);
}

TEST(SpanTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(tracer, "strategy.select"); }
  EXPECT_TRUE(tracer.spans().empty());
  Tracer on(true);
  {
    ScopedSpan root(on, "bench.session");
    ScopedSpan child(on, "strategy.select", root.index(), 7);
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].session, 7);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
}

const char kReport[] =
    "strategy=CellQ-HS\ncost_spent=0x1p+6\nquestions_asked=64\n"
    "metrics=10 9 1 0 9 9 9\n";

TEST(ReportCheckTest, FirstMismatchFindsEveryFlippedByte) {
  const std::string report = kReport;
  EXPECT_EQ(FirstMismatch(report, report), -1);
  for (size_t i = 0; i < report.size(); ++i) {
    std::string flipped = report;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_EQ(FirstMismatch(report, flipped), static_cast<int64_t>(i));
  }
  EXPECT_EQ(FirstMismatch(report, report.substr(0, 10)), 10);
  EXPECT_EQ(FirstMismatch(report, report + "x"),
            static_cast<int64_t>(report.size()));
}

TEST(ReportCheckTest, SingleFlippedByteFailsTheRun) {
  const std::string report = kReport;
  const std::map<std::string, std::string> reference = {{"CellQ-HS", report}};
  const std::map<std::string, uint64_t> pinned = {
      {"CellQ-HS", ReportDigest(report)}};

  RunResult ok;
  EXPECT_EQ(CheckReports({{"s0", "CellQ-HS", report, ""},
                          {"s1", "CellQ-HS", report, ""}},
                         reference, pinned, &ok),
            0);
  EXPECT_TRUE(ok.correct);
  EXPECT_EQ(ok.attempted, 2);
  EXPECT_EQ(ok.failed, 0);

  for (size_t i = 0; i < report.size(); ++i) {
    std::string flipped = report;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    RunResult result;
    EXPECT_EQ(CheckReports({{"s0", "CellQ-HS", report, ""},
                            {"s1", "CellQ-HS", flipped, ""}},
                           reference, pinned, &result),
              1);
    EXPECT_FALSE(result.correct);
    EXPECT_EQ(result.attempted, 2);
    EXPECT_EQ(result.failed, 1);
    EXPECT_NE(result.ToJson().find("\"failed\": 1"), std::string::npos);
  }
}

TEST(ReportCheckTest, PinnedDigestCatchesAChangeOnBothSides) {
  // The library changed what it outputs: the same-run reference moved with
  // the served report, so only the pinned digest tells.
  const std::string report = kReport;
  std::string changed = report;
  changed[5] = static_cast<char>(changed[5] ^ 0x01);
  RunResult result;
  EXPECT_EQ(CheckReports({{"s0", "CellQ-HS", changed, ""}},
                         {{"CellQ-HS", changed}},
                         {{"CellQ-HS", ReportDigest(report)}}, &result),
            1);
  EXPECT_FALSE(result.correct);
  EXPECT_EQ(result.failed, 1);

  // A missing pin, a missing reference and a session error each fail too.
  RunResult missing;
  EXPECT_EQ(CheckReports({{"s0", "CellQ-HS", report, ""},
                          {"s1", "FDQ-BMC", report, ""},
                          {"s2", "CellQ-HS", "", "connection failed"}},
                         {{"CellQ-HS", report}}, {}, &missing),
            3);
  EXPECT_EQ(missing.failed, 3);
}

TEST(ReportCheckTest, LoadsPinnedDigestsOfOneWorkload) {
  const std::string path = ::testing::TempDir() + "perfbench_pins.txt";
  const std::map<std::string, std::string> reference = {
      {"CellQ-HS", kReport}, {"FDQ-BMC", "other"}};
  ASSERT_TRUE(WriteDigests(path, "serve-mix", reference));
  {
    std::ofstream out(path, std::ios::app);
    out << "# a comment\n\noffline-tax CellQ-HS 0000000000000001\n";
  }
  std::map<std::string, uint64_t> pinned;
  std::string error;
  ASSERT_TRUE(LoadPinnedDigests(path, "serve-mix", &pinned, &error)) << error;
  ASSERT_EQ(pinned.size(), 2u);
  EXPECT_EQ(pinned.at("CellQ-HS"), ReportDigest(kReport));
  EXPECT_EQ(pinned.at("FDQ-BMC"), ReportDigest("other"));
  EXPECT_EQ(DigestHex(1), "0000000000000001");

  {
    std::ofstream out(path, std::ios::app);
    out << "serve-mix CellQ-Greedy not-a-digest\n";
  }
  pinned.clear();
  EXPECT_FALSE(LoadPinnedDigests(path, "serve-mix", &pinned, &error));
  EXPECT_FALSE(LoadPinnedDigests(path + ".missing", "serve-mix", &pinned,
                                 &error));
  std::remove(path.c_str());
}

TEST(RunResultTest, JsonCarriesAllDigits) {
  RunResult result;
  result.attempted = 3;
  result.Add("setup_s", 0.123456789012345, "s");
  const std::string json = result.ToJson();
  EXPECT_NE(json.find("\"correct\": true"), std::string::npos);
  EXPECT_NE(json.find("0.123456789012345"), std::string::npos);
  result.Fail("boom");
  EXPECT_NE(result.ToJson().find("\"correct\": false"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
