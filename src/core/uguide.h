#ifndef UGUIDE_CORE_UGUIDE_H_
#define UGUIDE_CORE_UGUIDE_H_

/// \file
/// \brief Umbrella header: the full public API of the UGuide library.
///
/// UGuide reproduces "UGuide: User-Guided Discovery of FD-Detectable
/// Errors" (SIGMOD 2017): given a dirty table and a question budget, it
/// discovers candidate functional dependencies, interactively questions an
/// expert (cells, tuples, or FDs), and reports the erroneous cells the
/// validated FDs detect.
///
/// Typical flow (see examples/quickstart.cpp):
///
///   Relation clean = GenerateHospital({.rows = 5000});
///   FdSet fds = DiscoverFds(clean).ValueOrDie();
///   DirtyDataset dirty = InjectErrors(clean, fds, {}).ValueOrDie();
///   Session session = Session::Create(clean, dirty, {}).ValueOrDie();
///   auto strategy = MakeFdQBudgetedMaxCoverage();
///   SessionReport report = session.Run(*strategy);
///   std::cout << report.metrics.ToString() << "\n";

#include "common/attribute_set.h"
#include "common/csv.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_pool.h"
#include "common/thread_pool.h"
#include "core/candidate_gen.h"
#include "core/cell_strategies.h"
#include "core/fd_strategies.h"
#include "core/metrics.h"
#include "core/repair.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "core/session_state.h"
#include "core/strategy.h"
#include "core/tuple_strategies.h"
#include "datagen/generators.h"
#include "discovery/partition.h"
#include "discovery/tane.h"
#include "errorgen/error_generator.h"
#include "fd/closure.h"
#include "fd/fd.h"
#include "oracle/cost_model.h"
#include "oracle/expert.h"
#include "oracle/resilient_expert.h"
#include "oracle/simulated_expert.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "violations/bipartite_graph.h"
#include "violations/cell_classes.h"
#include "violations/true_violation_set.h"
#include "violations/violation_artifact.h"
#include "violations/violation_engine.h"

#endif  // UGUIDE_CORE_UGUIDE_H_
