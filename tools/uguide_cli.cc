// uguide — command-line front end to the library, for working with your
// own CSV files without writing C++:
//
//   uguide profile  data.csv [--max-lhs=N] [--max-error=E]
//       Discover minimal (approximate) FDs and print them.
//
//   uguide detect   data.csv --fds=rules.txt [--out=suspects.csv]
//       Flag cells violating the given FDs (one "lhs1,lhs2->rhs" per line,
//       '#' comments allowed). Without --fds, candidates are discovered
//       automatically (exact FDs relaxed to 10% g3).
//
//   uguide repair   data.csv --fds=rules.txt --out=repaired.csv
//       Majority-vote repair of the violations of the given FDs.
//
//   uguide session  clean.csv [--strategy=fd|cell|tuple] [--budget=B]
//                   [--error-rate=E] [--journal=J] [--resume] [--seed=S]
//       Inject errors into a clean table and run one interactive session
//       against the simulated expert. --journal records every answered
//       question durably; --resume replays the journal to finish an
//       interrupted run with the identical report.
//
// Global flags: --fault-plan=PLAN loads a deterministic fault-injection
// plan (see fault_injection.h for the grammar); --discovery-deadline-ms=D
// bounds FD discovery, returning a truncated-but-sound FD set.
//
// Every subcommand prints a short human-readable summary to stdout; --out
// writes machine-readable CSV.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/uguide.h"

#include "flag_parse.h"

using namespace uguide;

namespace {

struct Args {
  std::string command;
  std::string csv_path;
  std::string fds_path;
  std::string out_path;
  int max_lhs = 3;
  double max_error = 0.0;
  int threads = 1;  // 0 = all hardware threads
  int memory_budget_mb = 0;  // 0 = ungoverned
  // Fault tolerance / session flags.
  std::string fault_plan;
  double discovery_deadline_ms = 0.0;
  std::string strategy = "fd";
  double budget = 500.0;
  double error_rate = 0.15;
  std::string journal_path;
  bool resume = false;
  JournalFsyncMode journal_fsync = JournalFsyncMode::kEvery;
  uint64_t seed = 11;
  // Owned by main; null when --memory-budget-mb is absent.
  MemoryBudget* memory_budget = nullptr;
};

void Usage() {
  std::fprintf(stderr,
               "usage: uguide <profile|detect|repair|session> data.csv\n"
               "              [--fds=rules.txt] [--out=file.csv]\n"
               "              [--max-lhs=N] [--max-error=E] [--threads=N]\n"
               "              [--memory-budget-mb=M] [--fault-plan=PLAN] "
               "[--discovery-deadline-ms=D]\n"
               "              [--strategy=fd|cell|tuple] [--budget=B] "
               "[--error-rate=E]\n"
               "              [--journal=J] [--journal-fsync=every|batch] "
               "[--resume] [--seed=S]\n"
               "\n"
               "  --threads=N   worker threads for FD discovery and the "
               "session's violation-\n"
               "                graph build (default 1; 0 = all cores); "
               "results are identical\n"
               "                at any thread count\n"
               "  --memory-budget-mb=M         cap partition memory at M MiB "
               "(0 = unlimited);\n"
               "                               discovery evicts, then "
               "truncates, instead of OOMing\n"
               "  --fault-plan=PLAN            deterministic fault injection "
               "(see fault_injection.h)\n"
               "  --discovery-deadline-ms=D    bound FD discovery; results "
               "may be truncated\n"
               "  session: --journal=J records answered questions durably; "
               "--resume replays J\n"
               "           --journal-fsync=batch amortizes the per-record "
               "fsync (a crash can\n"
               "           lose one trailing batch, which a resume simply "
               "re-asks)\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  const FlagParser flags("uguide");
  if (argc < 3) {
    std::fprintf(stderr, "uguide: expected a command and a CSV path\n");
    return false;
  }
  args->command = argv[1];
  args->csv_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](size_t prefix) {
      return std::string_view(arg).substr(prefix);
    };
    if (arg.rfind("--fds=", 0) == 0) {
      args->fds_path = arg.substr(6);
    } else if (arg.rfind("--out=", 0) == 0) {
      args->out_path = arg.substr(6);
    } else if (arg.rfind("--max-lhs=", 0) == 0) {
      if (!flags.Int("--max-lhs", value_of(10), 1, &args->max_lhs)) {
        return false;
      }
    } else if (arg.rfind("--max-error=", 0) == 0) {
      if (!flags.Double("--max-error", value_of(12), 0.0, 1.0,
                        &args->max_error)) {
        return false;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!flags.Int("--threads", value_of(10), 0, &args->threads)) {
        return false;
      }
    } else if (arg.rfind("--memory-budget-mb=", 0) == 0) {
      if (!flags.Int("--memory-budget-mb", value_of(19), 0,
                     &args->memory_budget_mb)) {
        return false;
      }
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      args->fault_plan = arg.substr(13);
    } else if (arg.rfind("--discovery-deadline-ms=", 0) == 0) {
      if (!flags.Double("--discovery-deadline-ms", value_of(24), 0.0,
                        FlagParser::kMax, &args->discovery_deadline_ms)) {
        return false;
      }
    } else if (arg.rfind("--strategy=", 0) == 0) {
      args->strategy = arg.substr(11);
    } else if (arg.rfind("--budget=", 0) == 0) {
      if (!flags.Double("--budget", value_of(9), 0.0, FlagParser::kMax,
                        &args->budget)) {
        return false;
      }
    } else if (arg.rfind("--error-rate=", 0) == 0) {
      if (!flags.Double("--error-rate", value_of(13), 0.0, 1.0,
                        &args->error_rate)) {
        return false;
      }
    } else if (arg.rfind("--journal=", 0) == 0) {
      args->journal_path = arg.substr(10);
    } else if (arg.rfind("--journal-fsync=", 0) == 0) {
      const std::string value = arg.substr(16);
      Result<JournalFsyncMode> mode = ParseJournalFsyncMode(value);
      if (!mode.ok()) {
        std::fprintf(stderr,
                     "uguide: invalid value '%s' for --journal-fsync "
                     "(expected every|batch)\n",
                     value.c_str());
        return false;
      }
      args->journal_fsync = *mode;
    } else if (arg == "--resume") {
      args->resume = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!flags.U64("--seed", value_of(7), &args->seed)) return false;
    } else {
      std::fprintf(stderr, "uguide: unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// Dies with a message on error; the CLI has no one to propagate to.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "error %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

FdSet LoadOrDiscoverFds(const Args& args, const Relation& rel) {
  if (!args.fds_path.empty()) {
    std::FILE* f = std::fopen(args.fds_path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.fds_path.c_str());
      std::exit(1);
    }
    std::string text;
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(f);
    return Unwrap(FdSet::Parse(text, rel.schema()), "parsing FD rules");
  }
  std::printf("no --fds given; discovering candidates (exact FDs relaxed "
              "to 10%% g3)...\n");
  CandidateGenOptions opts;
  opts.max_lhs_size = args.max_lhs;
  opts.num_threads = args.threads;
  opts.discovery_deadline_ms = args.discovery_deadline_ms;
  opts.memory_budget = args.memory_budget;
  CandidateSet candidates =
      Unwrap(GenerateCandidates(rel, opts), "discovering candidates");
  if (candidates.truncated) {
    std::printf("warning: discovery hit the %.0fms deadline; candidate set "
                "is truncated\n",
                args.discovery_deadline_ms);
  }
  if (candidates.memory_truncated) {
    std::printf("warning: discovery hit the %dMiB memory budget; candidate "
                "set is truncated\n",
                args.memory_budget_mb);
  }
  return candidates.candidates;
}

int RunProfile(const Args& args, const Relation& rel) {
  TaneOptions opts;
  opts.max_lhs_size = args.max_lhs;
  opts.max_error = args.max_error;
  opts.num_threads = args.threads;
  opts.deadline_ms = args.discovery_deadline_ms;
  opts.memory_budget = args.memory_budget;
  DiscoveryOutcome outcome =
      Unwrap(DiscoverFdsDetailed(rel, opts), "profiling");
  const FdSet& fds = outcome.fds;
  if (outcome.truncated) {
    std::printf("warning: discovery hit the %.0fms deadline after %d "
                "level(s); FD set is truncated\n",
                args.discovery_deadline_ms, outcome.levels_completed);
  }
  if (outcome.memory_truncated) {
    std::printf("warning: discovery hit the %dMiB memory budget after %d "
                "level(s); FD set is truncated\n",
                args.memory_budget_mb, outcome.levels_completed);
  }
  std::printf("# %zu minimal %sFDs (max LHS %d%s)\n", fds.Size(),
              args.max_error > 0 ? "approximate " : "", args.max_lhs,
              args.max_error > 0
                  ? (", g3 <= " + std::to_string(args.max_error)).c_str()
                  : "");
  std::printf("%s", fds.ToString(rel.schema()).c_str());
  return 0;
}

int RunDetect(const Args& args, const Relation& rel) {
  FdSet fds = LoadOrDiscoverFds(args, rel);
  std::vector<Cell> suspects = AllDetections(rel, fds);
  std::printf("%zu FD(s) flag %zu suspect cell(s) across %d rows\n",
              fds.Size(), suspects.size(), rel.NumRows());
  const size_t preview = std::min<size_t>(suspects.size(), 15);
  for (size_t i = 0; i < preview; ++i) {
    const Cell& cell = suspects[i];
    std::printf("  row %-7d %-20s '%s'\n", cell.row,
                rel.schema().Name(cell.col).c_str(),
                rel.Value(cell).c_str());
  }
  if (suspects.size() > preview) {
    std::printf("  ... (%zu more)\n", suspects.size() - preview);
  }
  if (!args.out_path.empty()) {
    CsvTable out;
    out.header = {"row", "attribute", "value"};
    for (const Cell& cell : suspects) {
      out.rows.push_back({std::to_string(cell.row),
                          rel.schema().Name(cell.col), rel.Value(cell)});
    }
    Status st = WriteCsvFile(out, args.out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", args.out_path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.out_path.c_str());
  }
  return 0;
}

int RunRepair(const Args& args, const Relation& rel) {
  FdSet fds = LoadOrDiscoverFds(args, rel);
  RepairResult result = RepairWithFds(rel, fds);
  std::printf("%zu correction(s) proposed\n", result.repairs.size());
  const size_t preview = std::min<size_t>(result.repairs.size(), 10);
  for (size_t i = 0; i < preview; ++i) {
    const CellRepair& r = result.repairs[i];
    std::printf("  row %-7d %-20s '%s' -> '%s'\n", r.cell.row,
                rel.schema().Name(r.cell.col).c_str(), r.old_value.c_str(),
                r.new_value.c_str());
  }
  if (!args.out_path.empty()) {
    Status st = WriteCsvFile(result.repaired.ToCsv(), args.out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", args.out_path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote repaired table to %s\n", args.out_path.c_str());
  }
  return 0;
}

// Runs one interactive session on a clean table: inject errors, generate
// candidates, question the simulated expert. The fault-tolerance machinery
// (journal, resume, retries) is exercised end-to-end here.
int RunSession(const Args& args, const Relation& clean) {
  std::unique_ptr<Strategy> strategy;
  if (args.strategy == "fd") {
    strategy = MakeFdQBudgetedMaxCoverage();
  } else if (args.strategy == "cell") {
    strategy = MakeCellQSums();
  } else if (args.strategy == "tuple") {
    strategy = MakeTupleSamplingSaturationSets();
  } else {
    std::fprintf(stderr, "unknown strategy '%s' (want fd|cell|tuple)\n",
                 args.strategy.c_str());
    return 2;
  }

  TaneOptions tane;
  tane.max_lhs_size = args.max_lhs;
  tane.num_threads = args.threads;
  tane.memory_budget = args.memory_budget;
  FdSet true_fds = Unwrap(DiscoverFds(clean, tane), "discovering true FDs");

  ErrorGenOptions errors;
  errors.error_rate = args.error_rate;
  errors.seed = args.seed;
  DirtyDataset dataset =
      Unwrap(InjectErrors(clean, true_fds, errors), "injecting errors");

  SessionConfig config;
  config.candidate_options.max_lhs_size = args.max_lhs;
  config.candidate_options.num_threads = args.threads;
  config.candidate_options.discovery_deadline_ms = args.discovery_deadline_ms;
  config.candidate_options.memory_budget = args.memory_budget;
  config.budget = args.budget;
  config.expert_seed = args.seed;
  Session session = Unwrap(
      Session::Create(clean, std::move(dataset), config), "creating session");
  if (session.discovery_truncated()) {
    std::printf("warning: candidate discovery hit the %.0fms deadline; "
                "candidate set is truncated\n",
                args.discovery_deadline_ms);
  }
  if (session.discovery_memory_truncated()) {
    std::printf("warning: candidate discovery hit the %dMiB memory budget; "
                "candidate set is truncated\n",
                args.memory_budget_mb);
  }

  SessionRunOptions run;
  run.journal_path = args.journal_path;
  run.resume = args.resume;
  run.journal_fsync = args.journal_fsync;
  run.resilient = !args.fault_plan.empty();
  SessionReport report = Unwrap(
      session.Run(*strategy, args.budget, run), "running session");

  std::printf("strategy %s: %d question(s), cost %.2f of %.2f\n",
              report.strategy_name.c_str(), report.result.questions_asked,
              report.result.cost_spent, args.budget);
  if (report.questions_replayed > 0) {
    std::printf("  resumed: %d question(s) replayed from %s\n",
                report.questions_replayed, args.journal_path.c_str());
  }
  if (run.resilient) {
    std::printf("  resilience: retry surcharge %.2f, %d question(s) "
                "degraded to idk\n",
                report.retry_cost, report.questions_exhausted);
  }
  std::printf("accepted %zu FD(s):\n%s",
              report.result.accepted_fds.Size(),
              report.result.accepted_fds.ToString(clean.schema()).c_str());
  std::printf("detections: %zu (%zu true, %zu false); %.1f%% of true "
              "violations found\n",
              report.metrics.detections, report.metrics.true_positives,
              report.metrics.false_positives,
              report.metrics.TrueViolationPct());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.fault_plan.empty()) {
    Status st = FaultRegistry::Global().LoadPlan(args.fault_plan);
    if (!st.ok()) {
      std::fprintf(stderr, "error parsing --fault-plan: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }
  std::optional<MemoryBudget> budget;
  if (args.memory_budget_mb > 0) {
    const size_t hard =
        static_cast<size_t>(args.memory_budget_mb) * (size_t{1} << 20);
    budget.emplace(hard - hard / 5, hard);  // soft at 80%, see FromMegabytes
    args.memory_budget = &*budget;
  }
  Relation rel =
      Unwrap(Relation::FromCsvFile(args.csv_path), "loading CSV");
  std::printf("loaded %s: %d rows x %d attributes\n", args.csv_path.c_str(),
              rel.NumRows(), rel.NumAttributes());

  int ret = 2;
  if (args.command == "profile") {
    ret = RunProfile(args, rel);
  } else if (args.command == "detect") {
    ret = RunDetect(args, rel);
  } else if (args.command == "repair") {
    ret = RunRepair(args, rel);
  } else if (args.command == "session") {
    ret = RunSession(args, rel);
  } else {
    std::fprintf(stderr, "uguide: unknown command '%s'\n",
                 args.command.c_str());
    Usage();
    return 2;
  }
  if (budget.has_value()) {
    std::printf("peak partition memory: %.1f MiB of %d MiB budget\n",
                static_cast<double>(budget->high_water()) / (1 << 20),
                args.memory_budget_mb);
  }
  return ret;
}
