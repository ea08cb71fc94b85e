#include "server/dataset.h"

#include <utility>

#include "datagen/generators.h"
#include "discovery/tane.h"
#include "errorgen/error_generator.h"

namespace uguide {

Result<Session> MakeServedDataset(const ServedDatasetOptions& options) {
  if (options.rows <= 0) {
    return Status::InvalidArgument("dataset rows must be positive");
  }
  DataGenOptions data;
  data.rows = options.rows;
  data.seed = options.seed;
  Relation clean = GenerateHospital(data);

  TaneOptions tane;
  tane.max_lhs_size = options.max_lhs;
  tane.num_threads = options.num_threads;
  UGUIDE_ASSIGN_OR_RETURN(FdSet true_fds, DiscoverFds(clean, tane));

  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = options.error_rate;
  errors.seed = options.seed + 1;
  UGUIDE_ASSIGN_OR_RETURN(DirtyDataset dataset,
                          InjectErrors(clean, true_fds, errors));

  SessionConfig config;
  config.candidate_options.max_lhs_size = options.max_lhs;
  config.candidate_options.num_threads = options.num_threads;
  config.budget = options.budget;
  config.idk_rate = options.idk_rate;
  config.wrong_rate = options.wrong_rate;
  config.expert_seed = options.expert_seed;
  config.expert_votes = options.expert_votes;
  return Session::Create(clean, std::move(dataset), config);
}

uint64_t RelationContentHash(const Relation& relation) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis.
  auto mix_bytes = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  };
  auto mix_string = [&mix_bytes](const std::string& value) {
    // Length-prefixed so ("ab","c") and ("a","bc") cannot collide.
    const uint64_t length = value.size();
    mix_bytes(&length, sizeof(length));
    mix_bytes(value.data(), value.size());
  };
  for (const std::string& name : relation.schema().Names()) mix_string(name);
  const TupleId rows = relation.NumRows();
  const int cols = relation.NumAttributes();
  for (TupleId row = 0; row < rows; ++row) {
    for (int col = 0; col < cols; ++col) mix_string(relation.Value(row, col));
  }
  return hash;
}

uint64_t ServedDatasetSignature(const ServedDatasetOptions& options) {
  size_t hash = 0;
  HashCombine(hash, options.rows);
  HashCombine(hash, options.error_rate);
  HashCombine(hash, options.seed);
  HashCombine(hash, options.idk_rate);
  HashCombine(hash, options.wrong_rate);
  HashCombine(hash, options.expert_seed);
  HashCombine(hash, options.expert_votes);
  HashCombine(hash, options.budget);
  HashCombine(hash, options.max_lhs);
  return hash;
}

}  // namespace uguide
