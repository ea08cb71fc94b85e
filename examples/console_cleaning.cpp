// Console cleaning: UGuide with a HUMAN expert. Loads a CSV file (or
// generates a dirty Hospital sample when no path is given), discovers the
// candidate FDs, and walks you through FD-based questions on your own
// terminal -- the real deployment mode the paper targets, where no ground
// truth exists.
//
//   ./build/examples/console_cleaning mydata.csv [budget]
//   ./build/examples/console_cleaning --demo            # generated sample
//   ./build/examples/console_cleaning --yes mydata.csv  # auto-affirm (CI)
//
// Answer each question with y / n / d (don't know). At the end the tool
// lists the cells flagged by the FDs you validated.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/uguide.h"

using namespace uguide;

namespace {

/// A human expert on stdin. Only FD questions are used by this example;
/// cell/tuple prompts are implemented for completeness.
class ConsoleExpert : public Expert {
 public:
  /// `engine` runs over `relation`; it supplies the conflict shown as
  /// context for FD questions.
  ConsoleExpert(const Relation* relation, ViolationEngine* engine,
                bool auto_yes)
      : relation_(relation), engine_(engine), auto_yes_(auto_yes) {}

  Answer IsCellErroneous(const Cell& cell) override {
    std::printf("Is this value wrong?  %s = '%s'\n  in row: [%s]\n",
                relation_->schema().Name(cell.col).c_str(),
                relation_->Value(cell).c_str(),
                relation_->RowToString(cell.row).c_str());
    return Prompt();
  }

  Answer IsTupleClean(TupleId row) override {
    std::printf("Is this whole row correct?\n  [%s]\n",
                relation_->RowToString(row).c_str());
    return Prompt();
  }

  Answer IsFdValid(const Fd& fd) override {
    std::printf("\nShould '%s' always determine '%s'?  (rule: %s)\n",
                fd.lhs.ToString(relation_->schema().Names()).c_str(),
                relation_->schema().Name(fd.rhs).c_str(),
                fd.ToString(relation_->schema()).c_str());
    // Context: one conflicting pair, as the paper suggests (§2.1).
    std::vector<Cell> cells = engine_->ViolatingCells(fd);
    if (!cells.empty()) {
      std::printf("  e.g. conflicting row: [%s]\n",
                  relation_->RowToString(cells.front().row).c_str());
    }
    return Prompt();
  }

 private:
  Answer Prompt() {
    if (auto_yes_) {
      std::printf("  [y/n/d] y (auto)\n");
      return Answer::kYes;
    }
    std::printf("  [y/n/d] ");
    std::fflush(stdout);
    std::string line;
    if (!std::getline(std::cin, line)) return Answer::kIdk;  // EOF
    if (!line.empty() && (line[0] == 'y' || line[0] == 'Y')) {
      return Answer::kYes;
    }
    if (!line.empty() && (line[0] == 'n' || line[0] == 'N')) {
      return Answer::kNo;
    }
    return Answer::kIdk;
  }

  const Relation* relation_;
  ViolationEngine* engine_;
  bool auto_yes_;
};

Relation LoadOrGenerate(const char* path) {
  if (path != nullptr) {
    auto rel = Relation::FromCsvFile(path);
    if (!rel.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", path,
                   rel.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(rel).ValueOrDie();
  }
  // Demo: a dirty Hospital sample.
  Relation clean = GenerateHospital({.rows = 1200, .seed = 3});
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();
  ErrorGenOptions errors;
  errors.error_rate = 0.10;
  return InjectErrors(clean, true_fds, errors).ValueOrDie().dirty;
}

}  // namespace

int main(int argc, char** argv) {
  bool auto_yes = false;
  const char* path = nullptr;
  double budget = 60.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--yes") == 0) {
      auto_yes = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      // keep path null
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else if (argv[i][0] != '-') {
      budget = std::atof(argv[i]);
    }
  }

  Relation dirty = LoadOrGenerate(path);
  std::printf("table: %d rows x %d attributes\n", dirty.NumRows(),
              dirty.NumAttributes());

  std::printf("profiling candidate dependencies...\n");
  CandidateGenOptions cand_opts;
  cand_opts.max_lhs_size = 3;
  CandidateSet candidates = GenerateCandidates(dirty, cand_opts).ValueOrDie();
  std::printf("found %zu candidate FDs; you have a question budget of %.0f "
              "(cost of an FD question = its LHS size)\n",
              candidates.candidates.Size(), budget);

  // One artifact (engine, violation graph, removal counts) serves both
  // the strategy and the expert's evidence display.
  const ViolationArtifact artifact(std::make_shared<ViolationEngine>(&dirty),
                                   candidates.candidates);
  ViolationEngine& engine = artifact.engine();
  ConsoleExpert expert(&dirty, &engine, auto_yes);
  QuestionContext ctx;
  ctx.dirty = &dirty;
  ctx.artifact = &artifact;
  ctx.candidates = &candidates.candidates;
  ctx.exact_fds = &candidates.exact;
  ctx.expert = &expert;
  ctx.budget = budget;

  auto strategy = MakeFdQBudgetedMaxCoverage();
  StrategyResult result = strategy->Run(ctx);

  std::printf("\nYou validated %zu rule(s).\n", result.accepted_fds.Size());
  std::vector<Cell> detections = AllDetections(engine, result.accepted_fds);
  std::printf("They flag %zu suspect cell(s)", detections.size());
  if (!detections.empty()) {
    std::printf("; the first few:\n");
    for (size_t i = 0; i < detections.size() && i < 10; ++i) {
      const Cell& cell = detections[i];
      std::printf("  row %-6d %s = '%s'\n", cell.row,
                  dirty.schema().Name(cell.col).c_str(),
                  dirty.Value(cell).c_str());
    }
  } else {
    std::printf(".\n");
  }
  return 0;
}
