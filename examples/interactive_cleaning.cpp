// Interactive cleaning walkthrough: narrates one budgeted session over a
// dirty Stock table, showing what the framework would actually put in
// front of an expert -- the candidate FDs with sample violations as
// context, the questions asked by each strategy family, and the final
// detection report. This mirrors Figure 1 of the paper end to end.
//
// Build & run:  ./build/examples/interactive_cleaning [rows]

#include <cstdio>
#include <cstdlib>

#include "core/uguide.h"

using namespace uguide;

namespace {

void ShowCandidateContext(const Session& session, size_t max_fds) {
  const Relation& dirty = session.dirty();
  ViolationEngine engine(&dirty);
  std::printf("candidate FDs (with one flagged cell as context):\n");
  size_t shown = 0;
  for (const Fd& fd : session.candidates()) {
    if (shown >= max_fds) break;
    std::vector<Cell> cells = engine.ViolatingCells(fd);
    if (cells.empty()) {
      std::printf("  %-28s no violations\n",
                  fd.ToString(dirty.schema()).c_str());
    } else {
      const Cell& cell = cells.front();
      std::printf("  %-28s %zu violations, e.g. row %d: [%s]\n",
                  fd.ToString(dirty.schema()).c_str(), cells.size(),
                  cell.row, dirty.RowToString(cell.row).c_str());
    }
    ++shown;
  }
  std::printf("  ... (%zu candidates total)\n\n",
              session.candidates().Size());
}

void RunAndReport(const Session& session, Strategy& strategy,
                  double budget) {
  SessionReport report = session.Run(strategy, budget);
  std::printf("  %-22s %3d questions, cost %6.0f -> accepted %3zu FDs, "
              "true %5.1f%%, false %5.1f%%\n",
              report.strategy_name.c_str(), report.result.questions_asked,
              report.result.cost_spent, report.result.accepted_fds.Size(),
              report.metrics.TrueViolationPct(),
              report.metrics.FalseViolationPct());
}

}  // namespace

int main(int argc, char** argv) {
  const int rows = argc > 1 ? std::atoi(argv[1]) : 3000;

  std::printf("=== UGuide interactive cleaning session (Stock, %d rows) "
              "===\n\n", rows);

  Relation clean = GenerateStock({.rows = rows, .seed = 13});
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();

  ErrorGenOptions errors;
  errors.model = ErrorModel::kSystematic;
  errors.error_rate = 0.15;
  DirtyDataset dirty = InjectErrors(clean, true_fds, errors).ValueOrDie();
  std::printf("dirty table has %zu corrupted cells; %zu cells participate "
              "in true-FD violations\n\n",
              dirty.truth.NumChanged(),
              TrueViolationSet::Compute(dirty.dirty, true_fds).Size());

  SessionConfig config;
  config.candidate_options.max_lhs_size = 3;
  Session session =
      Session::Create(clean, std::move(dirty), config).ValueOrDie();

  ShowCandidateContext(session, 8);

  const double budget = 400;
  std::printf("spending a budget of %.0f with each strategy family:\n",
              budget);
  auto fdq = MakeFdQBudgetedMaxCoverage();
  auto cell_hs = MakeCellQHittingSet();
  auto cell_sums = MakeCellQSums();
  auto tuple_sat = MakeTupleSamplingSaturationSets();
  RunAndReport(session, *fdq, budget);
  RunAndReport(session, *cell_hs, budget);
  RunAndReport(session, *cell_sums, budget);
  RunAndReport(session, *tuple_sat, budget);

  std::printf("\n(the FD strategy trades recall for zero false positives; "
              "tuple sampling trades false positives for full recall)\n");
  return 0;
}
