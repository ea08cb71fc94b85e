#ifndef UGUIDE_TESTS_TEST_UTIL_H_
#define UGUIDE_TESTS_TEST_UTIL_H_

#include <cstdint>

#include "core/session.h"
#include "datagen/generators.h"
#include "discovery/tane.h"
#include "errorgen/error_generator.h"
#include "server/protocol.h"

namespace uguide::testing {

/// Builds a ready-to-run Session over a generated Hospital table with
/// injected errors; the standard fixture for strategy tests. The simulated
/// expert answers "I don't know" at `idk_rate` and flips an answer at
/// `wrong_rate`.
inline Session MakeHospitalSession(
    int rows = 1200, ErrorModel model = ErrorModel::kSystematic,
    double error_rate = 0.15, uint64_t seed = 5, double idk_rate = 0.0,
    double wrong_rate = 0.0) {
  DataGenOptions data;
  data.rows = rows;
  data.seed = seed;
  Relation clean = GenerateHospital(data);

  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();

  ErrorGenOptions errors;
  errors.model = model;
  errors.error_rate = error_rate;
  errors.seed = seed + 1;
  DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();

  SessionConfig config;
  config.candidate_options.max_lhs_size = 3;
  config.idk_rate = idk_rate;
  config.wrong_rate = wrong_rate;
  return Session::Create(clean, std::move(dataset), config).ValueOrDie();
}

/// As MakeHospitalSession over the generated Tax table, the paper's
/// widest relation: many candidate FDs and cells shared by several of them.
inline Session MakeTaxSession(int rows = 400, double idk_rate = 0.0,
                              uint64_t seed = 9, double wrong_rate = 0.0) {
  DataGenOptions data;
  data.rows = rows;
  data.seed = seed;
  Relation clean = GenerateTax(data);

  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();

  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = 0.1;
  errors.seed = seed + 1;
  DirtyDataset dataset = InjectErrors(clean, true_fds, errors).ValueOrDie();

  SessionConfig config;
  config.candidate_options.max_lhs_size = 3;
  config.idk_rate = idk_rate;
  config.wrong_rate = wrong_rate;
  return Session::Create(clean, std::move(dataset), config).ValueOrDie();
}

/// 64-bit FNV-1a over the canonical report text: the digest the golden
/// tests pin.
inline uint64_t ReportDigest(const SessionReport& report) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char byte : SerializeSessionReport(report)) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace uguide::testing

#endif  // UGUIDE_TESTS_TEST_UTIL_H_
