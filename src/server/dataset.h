#ifndef UGUIDE_SERVER_DATASET_H_
#define UGUIDE_SERVER_DATASET_H_

#include <cstdint>

#include "core/session.h"

namespace uguide {

/// \brief The dataset recipe a serving deployment is pinned to.
///
/// uguided serves sessions over one dataset built at startup; the load
/// generator (and the serving tests) rebuild the *same* dataset from the
/// same flags to compute reference reports in-process. Byte-equality of
/// served and local reports therefore hinges on both sides sharing this
/// recipe — which is why it lives in the library, not in either tool.
struct ServedDatasetOptions {
  int rows = 1200;
  double error_rate = 0.15;
  uint64_t seed = 5;
  double idk_rate = 0.0;
  double wrong_rate = 0.0;
  uint64_t expert_seed = 11;
  int expert_votes = 1;
  /// Default per-session question budget (an open may override it).
  double budget = 64.0;
  int max_lhs = 3;
  /// Worker threads for candidate generation (results thread-invariant).
  int num_threads = 1;
};

/// Generates the hospital benchmark table, injects systematic errors, and
/// builds the Session (offline phase) — the deterministic twin of the
/// recipe the tests use.
Result<Session> MakeServedDataset(const ServedDatasetOptions& options);

/// Hash of what the relation *contains*: schema attribute names plus every
/// cell value, in row-major order (FNV-1a over length-prefixed strings).
/// Deliberately independent of dictionary-code assignment order, so two
/// loads of the same table hash equal however they were built. This is a
/// served bundle's DatasetKey, which live data stamps into journals.
uint64_t RelationContentHash(const Relation& relation);

/// Hash of every artifact-affecting field of the recipe — everything
/// except `num_threads`, whose outputs are thread-invariant by the
/// determinism discipline. Two recipes with equal signatures build
/// byte-identical sessions, engines, and graphs; the DatasetRegistry
/// memoizes builds by it.
uint64_t ServedDatasetSignature(const ServedDatasetOptions& options);

}  // namespace uguide

#endif  // UGUIDE_SERVER_DATASET_H_
