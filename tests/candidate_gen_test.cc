#include <gtest/gtest.h>

#include <string>

#include "core/candidate_gen.h"
#include "datagen/generators.h"
#include "discovery/partition.h"
#include "discovery/tane.h"
#include "fd/closure.h"

namespace uguide {
namespace {

Relation SmallHospital() {
  DataGenOptions opts;
  opts.rows = 800;
  opts.seed = 31;
  return GenerateHospital(opts);
}

TEST(CandidateGenTest, ExactFdsAreWithinCandidatesClosure) {
  Relation dirty = SmallHospital();  // clean data is a valid "dirty" input
  CandidateGenOptions opts;
  opts.max_lhs_size = 3;
  CandidateSet result = GenerateCandidates(dirty, opts).ValueOrDie();
  // Every exact FD must be implied by the candidate AFD set (candidates
  // are generalizations at a weaker threshold).
  ClosureEngine candidate_closure(result.candidates);
  for (const Fd& fd : result.exact) {
    EXPECT_TRUE(candidate_closure.Implies(fd)) << fd.ToString();
  }
}

TEST(CandidateGenTest, CandidatesRespectThreshold) {
  Relation dirty = SmallHospital();
  CandidateGenOptions opts;
  opts.max_lhs_size = 2;
  opts.relax_threshold = 0.15;
  CandidateSet result = GenerateCandidates(dirty, opts).ValueOrDie();
  PartitionCache cache(&dirty);
  for (const Fd& fd : result.candidates) {
    EXPECT_LE(cache.FdError(fd), 0.15) << fd.ToString();
    EXPECT_LE(fd.lhs.Size(), 2);
  }
}

TEST(CandidateGenTest, CandidatesAreMinimal) {
  Relation dirty = SmallHospital();
  CandidateGenOptions opts;
  opts.max_lhs_size = 2;
  CandidateSet result = GenerateCandidates(dirty, opts).ValueOrDie();
  for (const Fd& fd : result.candidates) {
    EXPECT_TRUE(result.candidates.IsMinimalIn(fd)) << fd.ToString();
  }
}

TEST(CandidateGenTest, RejectsBadThreshold) {
  Relation dirty = SmallHospital();
  CandidateGenOptions opts;
  opts.relax_threshold = 1.0;
  EXPECT_FALSE(GenerateCandidates(dirty, opts).ok());
}

TEST(CandidateGenTest, EmptyRelationYieldsNoCandidates) {
  Relation empty(Schema::Make({"a", "b"}).ValueOrDie());
  CandidateSet result = GenerateCandidates(empty, {}).ValueOrDie();
  EXPECT_TRUE(result.exact.Empty());
  EXPECT_TRUE(result.candidates.Empty());
}

TEST(CandidateGenTest, ThresholdZeroEqualsExactDiscovery) {
  Relation dirty = SmallHospital();
  CandidateGenOptions opts;
  opts.max_lhs_size = 2;
  opts.relax_threshold = 0.0;
  CandidateSet result = GenerateCandidates(dirty, opts).ValueOrDie();
  EXPECT_EQ(result.candidates.Size(), result.exact.Size());
  for (const Fd& fd : result.exact) {
    EXPECT_TRUE(result.candidates.Contains(fd)) << fd.ToString();
  }
}

TEST(CandidateGenTest, OneWalkEqualsTwoSoloPasses) {
  // The exact and candidate frontiers come from one shared lattice walk;
  // each must equal its own solo discovery pass, FD for FD in order, at
  // every thread count and under soft-limit spill.
  DataGenOptions data;
  data.rows = 2000;
  const Relation dirty = GenerateTax(data);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  const FdSet exact = DiscoverFds(dirty, tane).ValueOrDie();
  tane.max_error = 0.10;
  const FdSet relaxed = DiscoverFds(dirty, tane).ValueOrDie();
  ASSERT_FALSE(relaxed.Empty());

  CandidateGenOptions opts;
  opts.max_lhs_size = 3;
  const auto check = [&](const std::string& what) {
    const CandidateSet got = GenerateCandidates(dirty, opts).ValueOrDie();
    EXPECT_EQ(got.exact.fds(), exact.fds()) << what;
    EXPECT_EQ(got.candidates.fds(), relaxed.fds()) << what;
    EXPECT_FALSE(got.truncated || got.memory_truncated) << what;
    return got;
  };
  for (int threads : {1, 2, 4, 8}) {
    opts.num_threads = threads;
    check("threads=" + std::to_string(threads));
  }
  // Spill: a soft limit at a quarter of the walk's natural peak.
  MemoryBudget probe;
  opts.num_threads = 1;
  opts.memory_budget = &probe;
  const size_t peak = check("probe").peak_memory_bytes;
  EXPECT_EQ(peak, probe.high_water());
  MemoryBudget budget(/*soft_limit_bytes=*/probe.high_water() / 4,
                      /*hard_limit_bytes=*/0);
  opts.num_threads = 4;
  opts.memory_budget = &budget;
  check("threads=4, spilled");
  EXPECT_EQ(budget.charged(), 0u);
}

}  // namespace
}  // namespace uguide
