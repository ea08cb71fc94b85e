#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "datagen/generators.h"
#include "discovery/tane.h"
#include "fd/closure.h"
#include "reference/fd_theory.h"

namespace uguide {
namespace {

struct GeneratorCase {
  const char* name;
  Relation (*generate)(const DataGenOptions&);
  FdSet (*embedded)(const Schema&);
  int expected_attributes;
};

class GeneratorTest : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(GeneratorTest, ProducesRequestedRows) {
  const auto& param = GetParam();
  DataGenOptions opts;
  opts.rows = 500;
  Relation rel = param.generate(opts);
  EXPECT_EQ(rel.NumRows(), 500);
  EXPECT_EQ(rel.NumAttributes(), param.expected_attributes);
}

TEST_P(GeneratorTest, DeterministicFromSeed) {
  const auto& param = GetParam();
  DataGenOptions opts;
  opts.rows = 200;
  opts.seed = 77;
  Relation a = param.generate(opts);
  Relation b = param.generate(opts);
  ASSERT_EQ(a.NumRows(), b.NumRows());
  for (TupleId r = 0; r < a.NumRows(); ++r) {
    for (int c = 0; c < a.NumAttributes(); ++c) {
      ASSERT_EQ(a.Value(r, c), b.Value(r, c));
    }
  }
  opts.seed = 78;
  Relation c = param.generate(opts);
  bool any_difference = false;
  for (TupleId r = 0; r < a.NumRows() && !any_difference; ++r) {
    for (int col = 0; col < a.NumAttributes(); ++col) {
      if (a.Value(r, col) != c.Value(r, col)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_P(GeneratorTest, EmbeddedFdsHold) {
  const auto& param = GetParam();
  DataGenOptions opts;
  opts.rows = 2000;
  Relation rel = param.generate(opts);
  for (const Fd& fd : param.embedded(rel.schema())) {
    EXPECT_TRUE(FdHoldsOn(rel, fd)) << fd.ToString(rel.schema());
  }
}

TEST_P(GeneratorTest, DiscoveryImpliesEmbeddedFds) {
  const auto& param = GetParam();
  DataGenOptions opts;
  opts.rows = 2000;
  Relation rel = param.generate(opts);
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet discovered = DiscoverFds(rel, tane).ValueOrDie();
  ClosureEngine closure(discovered);
  for (const Fd& fd : param.embedded(rel.schema())) {
    EXPECT_TRUE(closure.Implies(fd)) << fd.ToString(rel.schema());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorTest,
    ::testing::Values(
        GeneratorCase{"tax", &GenerateTax, &TaxEmbeddedFds, 16},
        GeneratorCase{"hospital", &GenerateHospital, &HospitalEmbeddedFds,
                      16},
        GeneratorCase{"stock", &GenerateStock, &StockEmbeddedFds, 10}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return info.param.name;
    });

TEST(GeneratorTest, TaxValueDiversity) {
  Relation rel = GenerateTax({.rows = 1000, .seed = 1});
  // zip column must have many distinct values, gender exactly two.
  std::set<std::string> zips, genders;
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    zips.insert(rel.Value(r, *rel.schema().IndexOf("zip")));
    genders.insert(rel.Value(r, *rel.schema().IndexOf("gender")));
  }
  EXPECT_GT(zips.size(), 10u);
  EXPECT_EQ(genders.size(), 2u);
}

TEST(GeneratorTest, StockDateTickerIsKey) {
  Relation rel = GenerateStock({.rows = 800, .seed = 2});
  const int date = *rel.schema().IndexOf("date");
  const int ticker = *rel.schema().IndexOf("ticker");
  std::set<std::pair<std::string, std::string>> pairs;
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    EXPECT_TRUE(
        pairs.emplace(rel.Value(r, date), rel.Value(r, ticker)).second);
  }
}

TEST(GeneratorTest, HospitalProvidersRepeat) {
  Relation rel = GenerateHospital({.rows = 1000, .seed = 3});
  const int provider = *rel.schema().IndexOf("provider_number");
  std::map<std::string, int> counts;
  for (TupleId r = 0; r < rel.NumRows(); ++r) {
    counts[rel.Value(r, provider)]++;
  }
  int max_count = 0;
  for (const auto& [p, count] : counts) max_count = std::max(max_count, count);
  EXPECT_GT(max_count, 1);  // multi-tuple classes exist for error injection
}

}  // namespace
}  // namespace uguide
