// Regenerates the paper's evaluation (§7): the §7.1 dataset statistics,
// Figs. 3-10, the §7.2.8 comparative table, and the ablation and
// robustness studies. Every figure prints its text tables to stdout. The
// parameter-sweep panels (Figs. 3-9 and the robustness study's single-ask
// panels) are rows of one panel table run by one sweep loop, and they also
// land in a JSON file: one row per (figure, panel, x, series, metric) with
// the mean, min and max over the dirty-data seeds.
//
//   paper_figures [--figure=NAME] [--rows=N] [--seeds=K] [--max-lhs=L]
//                 [--out=FIGURES.fresh.json]
//
// NAME is one of stats, fig3, fig4, fig5, fig6, fig7_8, fig9, fig10,
// summary, ablation, robustness; without --figure every figure runs, in
// that order. Paper scale is --rows=100000.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/uguide.h"
#include "flag_parse.h"

using namespace uguide;

namespace {

/// Which of the three paper datasets to generate; indexes kDatasets.
enum class Dataset { kTax, kHospital, kStock };

struct DatasetEntry {
  const char* name;
  Relation (*generate)(const DataGenOptions&);
};

constexpr DatasetEntry kDatasets[] = {{"Tax", GenerateTax},
                                      {"Hospital", GenerateHospital},
                                      {"Stock", GenerateStock}};

/// Parameters shared by every figure; --rows, --seeds and --max-lhs set
/// them.
struct Params {
  int rows = 3000;
  int seeds = 1;  // dirty-dataset instantiations averaged per sweep point
  int max_lhs = 3;
};

/// Builds one experiment session: generate clean data, discover Sigma_TC,
/// inject errors, generate candidates. `seed` picks the data and error
/// draws; the caller's `config` picks the expert's.
Session MakeSession(const Params& params, Dataset dataset,
                    ErrorGenOptions errors, SessionConfig config,
                    uint64_t seed) {
  DataGenOptions data;
  data.rows = params.rows;
  data.seed = 1000 + seed;
  Relation clean = kDatasets[static_cast<int>(dataset)].generate(data);

  TaneOptions tane;
  tane.max_lhs_size = params.max_lhs;
  FdSet true_fds = DiscoverFds(clean, tane).ValueOrDie();

  errors.seed = 2000 + seed;
  DirtyDataset dirty = InjectErrors(clean, true_fds, errors).ValueOrDie();

  config.candidate_options.max_lhs_size = params.max_lhs;
  return Session::Create(clean, std::move(dirty), config).ValueOrDie();
}

// ---------------------------------------------------------------------------
// The sweep panels.

/// One table column: `strategy` (a MakeStrategyByName name, default
/// options) printed under `label`.
struct Series {
  const char* label;
  const char* strategy;
};

const std::vector<Series> kCellSeries = {
    {"CellQ-Greedy", "CellQ-Greedy"}, {"CellQ-HS", "CellQ-HS"},
    {"CellQ-SUMS", "CellQ-SUMS"}, {"CellQ-Oracle", "CellQ-Oracle"}};
const std::vector<Series> kHospitalFdSeries = {
    {"Hospital-Greedy", "FDQ-Greedy"}, {"Hospital-BMC", "FDQ-BMC"},
    {"Hospital-Oracle", "FDQ-Oracle"}};
const std::vector<Series> kTaxFdSeries = {{"Tax-Greedy", "FDQ-Greedy"},
                                          {"Tax-BMC", "FDQ-BMC"},
                                          {"Tax-Oracle", "FDQ-Oracle"}};
const std::vector<Series> kTupleSeries = {
    {"Uniform", "Sampling-Uniform"}, {"Violation", "Sampling-Violation"},
    {"Saturation", "Sampling-Saturation"}, {"TupleQ-Oracle", "TupleQ-Oracle"}};
// The best representative of each question family.
const std::vector<Series> kHospitalBestSeries = {
    {"Hospital FD-Q", "FDQ-BMC"}, {"Hospital Cell-Q", "CellQ-SUMS"},
    {"Hospital Tuple-Q", "Sampling-Saturation"}};
const std::vector<Series> kBestSeries = {{"FD-Q", "FDQ-BMC"},
                                         {"Cell-Q", "CellQ-SUMS"},
                                         {"Tuple-Q", "Sampling-Saturation"}};

/// Prints a table header like:  budget  Alg1  Alg2 ...
void PrintHeader(const char* x_label, const std::vector<Series>& series) {
  std::printf("%-10s", x_label);
  for (const Series& s : series) std::printf(" %14s", s.label);
  std::printf("\n");
}

/// What tells two sweep points' sessions apart. The defaults are the
/// paper's usual fixture: Hospital with 20% systematic errors.
struct SessionKey {
  Dataset dataset = Dataset::kHospital;
  ErrorModel model = ErrorModel::kSystematic;
  double error_rate = 0.20;
  double per_fd_cap = 1.0;
  double idk_rate = 0.0;
  double wrong_rate = 0.0;
  auto operator<=>(const SessionKey&) const = default;
};

constexpr SessionKey kHospitalSystematic{};
constexpr SessionKey kHospitalUniform{.model = ErrorModel::kUniform};
constexpr SessionKey kHospitalRandom{.model = ErrorModel::kRandom};
constexpr SessionKey kTaxSystematic{.dataset = Dataset::kTax};
// Figs. 7-8 cap each FD at 10% of the tuples while the error rate grows.
constexpr SessionKey kHospitalCapped{.per_fd_cap = 0.10};

/// What a panel's x value sets: the budget, or a percentage of erroneous
/// tuples, "I don't know" answers or wrong answers.
enum class Axis { kBudget, kErrorPct, kIdkPct, kWrongPct };
constexpr const char* kAxisLabels[] = {"budget", "err_pct", "idk_pct",
                                       "wrong_pct"};

enum class Metric { kTrue, kFalse, kFalseNegative, kInjected };
constexpr const char* kMetricNames[] = {"true", "false", "false_negative",
                                        "injected"};

/// One sweep panel: a table of `metric` with a row per x value and a
/// column per series, each cell the mean over the seeds of a session built
/// from `session` with the field `axis` names set from x.
struct Panel {
  const char* figure;
  const char* title;
  SessionKey session;
  Axis axis;
  std::vector<double> xs;
  double budget;  // x instead when axis is kBudget
  const std::vector<Series>* series;
  Metric metric;
};

const std::vector<double> kFig3Budgets = {200, 400, 600, 800, 1000, 1500, 2000};
const std::vector<double> kFig4SmallBudgets = {50,  100, 150, 200,
                                               250, 300, 400, 500};
const std::vector<double> kFig4LargeBudgets = {500, 1000, 1500, 2000};
const std::vector<double> kFig56Budgets = {250, 500, 1000, 1500, 2000};
const std::vector<double> kErrorPcts = {10, 20, 30, 40, 50};
const std::vector<double> kIdkPcts = {0, 25, 50, 60, 70, 80, 90, 100};
const std::vector<double> kWrongPcts = {0, 5, 10, 20, 30};
constexpr double kRobustnessBudget = 900.0;

// Figs. 3-9 of the paper and the robustness study's single-ask panels, in
// print order.
const std::vector<Panel> kPanels = {
    {"fig3", "(a) %true violations vs budget, systematic errors",
     kHospitalSystematic, Axis::kBudget, kFig3Budgets, 0, &kCellSeries,
     Metric::kTrue},
    {"fig3", "(d) %false violations vs budget, systematic errors",
     kHospitalSystematic, Axis::kBudget, kFig3Budgets, 0, &kCellSeries,
     Metric::kFalse},
    {"fig3", "(b) %true violations vs budget, uniform errors", kHospitalUniform,
     Axis::kBudget, kFig3Budgets, 0, &kCellSeries, Metric::kTrue},
    {"fig3", "(c) %detected injected errors vs budget, random errors",
     kHospitalRandom, Axis::kBudget, kFig3Budgets, 0, &kCellSeries,
     Metric::kInjected},
    {"fig4", "(a) %true violations vs budget, systematic errors, Hospital",
     kHospitalSystematic, Axis::kBudget, kFig4SmallBudgets, 0,
     &kHospitalFdSeries, Metric::kTrue},
    {"fig4", "(a) %true violations vs budget, systematic errors, Tax",
     kTaxSystematic, Axis::kBudget, kFig4SmallBudgets, 0, &kTaxFdSeries,
     Metric::kTrue},
    {"fig4", "(b) %true violations vs budget, uniform errors, Hospital",
     kHospitalUniform, Axis::kBudget, kFig4LargeBudgets, 0, &kHospitalFdSeries,
     Metric::kTrue},
    {"fig4", "(c) %detected injected errors vs budget, random errors, Hospital",
     kHospitalRandom, Axis::kBudget, kFig4LargeBudgets, 0, &kHospitalFdSeries,
     Metric::kInjected},
    {"fig4", "(d) %false negatives vs budget, systematic errors, Hospital",
     kHospitalSystematic, Axis::kBudget, kFig4SmallBudgets, 0,
     &kHospitalFdSeries, Metric::kFalseNegative},
    {"fig5", "(a) %true violations vs budget", kHospitalSystematic,
     Axis::kBudget, kFig56Budgets, 0, &kTupleSeries, Metric::kTrue},
    {"fig5", "(b) %false violations vs budget", kHospitalSystematic,
     Axis::kBudget, kFig56Budgets, 0, &kTupleSeries, Metric::kFalse},
    {"fig6", "(a) %true violations vs budget", kHospitalSystematic,
     Axis::kBudget, kFig56Budgets, 0, &kHospitalBestSeries, Metric::kTrue},
    {"fig6", "(b) %false violations vs budget", kHospitalSystematic,
     Axis::kBudget, kFig56Budgets, 0, &kHospitalBestSeries, Metric::kFalse},
    {"fig7_8", "Fig. 7: %true violations vs error %", kHospitalCapped,
     Axis::kErrorPct, kErrorPcts, 500, &kBestSeries, Metric::kTrue},
    {"fig7_8", "Fig. 8: %false violations vs error %", kHospitalCapped,
     Axis::kErrorPct, kErrorPcts, 500, &kBestSeries, Metric::kFalse},
    {"fig9", "%true violations vs %non-responses", kHospitalSystematic,
     Axis::kIdkPct, kIdkPcts, 1000, &kBestSeries, Metric::kTrue},
    // §7.2.8 point 5: the tuple strategies' IDK penalty shows up as false
    // positives (a small validated sample keeps many false FDs alive).
    {"fig9", "%false violations vs %non-responses", kHospitalSystematic,
     Axis::kIdkPct, kIdkPcts, 1000, &kBestSeries, Metric::kFalse},
    {"robustness", "%true violations vs %wrong answers (single ask)",
     kHospitalSystematic, Axis::kWrongPct, kWrongPcts, kRobustnessBudget,
     &kBestSeries, Metric::kTrue},
    {"robustness", "%false violations vs %wrong answers (single ask)",
     kHospitalSystematic, Axis::kWrongPct, kWrongPcts, kRobustnessBudget,
     &kBestSeries, Metric::kFalse},
};

/// A metric's mean, min and max over the seeds.
struct Stat {
  double mean = 0;
  double min = 0;
  double max = 0;
};

/// `metric` over one run per seed. The false-negative rate is 100 minus
/// the true-violation rate's mean, min and max.
Stat Summarize(const std::vector<DetectionMetrics>& runs, Metric metric) {
  std::vector<double> values;
  for (const DetectionMetrics& m : runs) {
    if (metric == Metric::kFalse) {
      values.push_back(m.FalseViolationPct());
    } else if (metric == Metric::kInjected) {
      values.push_back(m.InjectedRecallPct());
    } else {
      values.push_back(m.TrueViolationPct());
    }
  }
  const auto [min, max] = std::minmax_element(values.begin(), values.end());
  const double mean = std::accumulate(values.begin(), values.end(), 0.0) /
                      static_cast<double>(values.size());
  if (metric == Metric::kFalseNegative) {
    return {100.0 - mean, 100.0 - *max, 100.0 - *min};
  }
  return {mean, *min, *max};
}

/// Runs the sweep panels. Sessions and runs are deterministic, so a
/// (session, strategy, budget) point runs once however many panels and
/// metrics show it; one seed set of sessions is alive at a time.
class Sweep {
 public:
  explicit Sweep(const Params& params) : params_(params) {}

  /// Prints every panel of `figure` and records its JSON rows.
  void Run(std::string_view figure) {
    for (const Panel& panel : kPanels) {
      if (panel.figure != figure) continue;
      std::printf("\n-- %s --\n", panel.title);
      PrintHeader(kAxisLabels[static_cast<int>(panel.axis)], *panel.series);
      for (double x : panel.xs) {
        SessionKey key = panel.session;
        double budget = panel.budget;
        switch (panel.axis) {
          case Axis::kBudget:
            budget = x;
            break;
          case Axis::kErrorPct:
            key.error_rate = x / 100.0;
            break;
          case Axis::kIdkPct:
            key.idk_rate = x / 100.0;
            break;
          case Axis::kWrongPct:
            key.wrong_rate = x / 100.0;
            break;
        }
        std::printf("%-10.0f", x);
        for (const Series& series : *panel.series) {
          const auto& runs = Point(key, series.strategy, budget);
          const Stat stat = Summarize(runs, panel.metric);
          std::printf(" %14.1f", stat.mean);
          rows_.push_back({&panel, x, series.label, stat});
        }
        std::printf("\n");
      }
    }
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"paper_figures\",\n"
                 "  \"rows\": %d,\n"
                 "  \"seeds\": %d,\n"
                 "  \"max_lhs\": %d,\n"
                 "  \"points\": [\n",
                 params_.rows, params_.seeds, params_.max_lhs);
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(out,
                   "    {\"figure\": \"%s\", \"panel\": \"%s\", \"x\": %g, "
                   "\"series\": \"%s\", \"metric\": \"%s\", \"mean\": %.17g, "
                   "\"min\": %.17g, \"max\": %.17g}%s\n",
                   r.panel->figure, r.panel->title, r.x, r.series,
                   kMetricNames[static_cast<int>(r.panel->metric)],
                   r.stat.mean, r.stat.min, r.stat.max,
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Row {
    const Panel* panel;
    double x;
    const char* series;
    Stat stat;
  };

  /// One run per seed of `strategy` at `budget` on `key`'s sessions.
  const std::vector<DetectionMetrics>& Point(const SessionKey& key,
                                             const char* strategy,
                                             double budget) {
    auto [it, inserted] = runs_.try_emplace(RunKey(key, strategy, budget));
    if (!inserted) return it->second;
    if (sessions_key_ != key) {
      sessions_.clear();
      for (int seed = 0; seed < params_.seeds; ++seed) {
        ErrorGenOptions errors;
        errors.model = key.model;
        errors.error_rate = key.error_rate;
        errors.per_fd_cap = key.per_fd_cap;
        SessionConfig config;
        config.idk_rate = key.idk_rate;
        config.wrong_rate = key.wrong_rate;
        config.expert_seed = 3000 + seed;
        sessions_.push_back(
            MakeSession(params_, key.dataset, errors, config, seed));
      }
      sessions_key_ = key;
    }
    const auto run = MakeStrategyByName(strategy).ValueOrDie();
    for (const Session& session : sessions_) {
      it->second.push_back(session.Run(*run, budget).metrics);
    }
    return it->second;
  }

  using RunKey = std::tuple<SessionKey, std::string, double>;

  const Params params_;
  std::map<RunKey, std::vector<DetectionMetrics>> runs_;
  std::optional<SessionKey> sessions_key_;
  std::vector<Session> sessions_;
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------------------
// The tables that are not sweeps, one plain function each.

// §7.1: per dataset, the row count, attribute count, and the number of
// minimal exact FDs discovered by TANE (the paper reports 364 / 83 / 56 for
// Tax / Hospital / SP Stock at 100K+ rows; counts scale with rows and the
// LHS-size cap).
void DatasetStats(const Params& params) {
  std::printf("== Dataset statistics (rows=%d, max_lhs=%d) ==\n", params.rows,
              params.max_lhs);
  std::printf("%-10s %8s %8s %12s %12s %12s\n", "dataset", "rows", "attrs",
              "exact FDs", "AFDs(10%)", "candidates");

  for (const DatasetEntry& dataset : kDatasets) {
    DataGenOptions data;
    data.rows = params.rows;
    Relation rel = dataset.generate(data);

    TaneOptions tane;
    tane.max_lhs_size = params.max_lhs;
    FdSet exact = DiscoverFds(rel, tane).ValueOrDie();

    TaneOptions approx = tane;
    approx.max_error = 0.10;
    FdSet afds = DiscoverFds(rel, approx).ValueOrDie();

    CandidateGenOptions cand;
    cand.max_lhs_size = params.max_lhs;
    CandidateSet candidates = GenerateCandidates(rel, cand).ValueOrDie();

    std::printf("%-10s %8d %8d %12zu %12zu %12zu\n", dataset.name,
                rel.NumRows(), rel.NumAttributes(), exact.Size(), afds.Size(),
                candidates.candidates.Size());
  }
}

// Fig. 10: runtime per user interaction vs. table size, Tax dataset. The
// paper's claim to reproduce (§7.2.7): tuple-based questions have roughly
// size-independent per-interaction latency; cell- and FD-based latency
// scales with the number of violations (and hence the table size).
//
// Measurement follows the paper's definition exactly -- "the time taken
// from the moment the user answers a question to the moment the next
// question is asked": a timing decorator around the simulated expert
// records the gap between consecutive questions, so per-session setup
// (candidate generation, graph construction) and finalization (sample FD
// discovery, evaluation) are excluded.
using Clock = std::chrono::steady_clock;

// Delegates to the real expert while recording inter-question gaps.
class TimingExpert : public Expert {
 public:
  explicit TimingExpert(Expert* inner) : inner_(inner) {}

  Answer IsCellErroneous(const Cell& cell) override {
    Stamp();
    return inner_->IsCellErroneous(cell);
  }
  Answer IsTupleClean(TupleId row) override {
    Stamp();
    return inner_->IsTupleClean(row);
  }
  Answer IsFdValid(const Fd& fd) override {
    Stamp();
    return inner_->IsFdValid(fd);
  }

  /// Mean milliseconds between consecutive questions (0 if fewer than 2).
  double MeanGapMs() const {
    if (questions_ < 2) return 0.0;
    return std::chrono::duration<double, std::milli>(last_ - first_).count() /
           (questions_ - 1);
  }

 private:
  void Stamp() {
    last_ = Clock::now();
    if (questions_++ == 0) first_ = last_;
  }

  Expert* inner_;
  Clock::time_point first_;
  Clock::time_point last_;
  int questions_ = 0;
};

double MsPerInteraction(const Session& session, Strategy& strategy,
                        double budget) {
  SimulatedExpert inner(&session.true_violations(), &session.truth(),
                        session.dirty().NumAttributes(), session.true_fds());
  TimingExpert timed(&inner);
  QuestionContext ctx;
  ctx.dirty = &session.dirty();
  ctx.candidates = &session.candidates();
  ctx.exact_fds = &session.exact_fds();
  ctx.expert = &timed;
  ctx.budget = budget;
  ctx.true_fds = &session.true_fds();
  ctx.true_violations = &session.true_violations();
  ctx.injected = &session.truth();
  strategy.Run(ctx);
  return timed.MeanGapMs();
}

void Fig10Runtime(const Params& params) {
  const double budget = 500.0;
  std::printf("\n-- ms between consecutive questions vs #tuples --\n");
  PrintHeader("#tuples", kBestSeries);
  for (int rows : {1000, 2000, 4000, 8000}) {
    Params scaled = params;
    scaled.rows = rows;
    SessionConfig config;
    config.expert_seed = 3000;
    Session session = MakeSession(scaled, Dataset::kTax, {}, config, 0);
    std::printf("%-10d", rows);
    for (const Series& series : kBestSeries) {
      const auto strategy = MakeStrategyByName(series.strategy).ValueOrDie();
      MsPerInteraction(session, *strategy, budget);  // warm-up
      std::printf(" %14.3f", MsPerInteraction(session, *strategy, budget));
    }
    std::printf("\n");
  }
}

// §7.2.8 "Comparative Analysis of Algorithms": the paper closes its
// evaluation with a qualitative five-dimension comparison of the three
// question families. This is the quantitative version of that table on one
// fixture -- every row of the paper's list backed by a measured number.
void SummaryTable(const Params& params) {
  const double budget = 1000.0;
  SessionConfig config;
  config.expert_seed = 3000;
  const Session normal = MakeSession(params, Dataset::kHospital, {}, config, 0);
  config.idk_rate = 0.70;
  const Session hesitant =
      MakeSession(params, Dataset::kHospital, {}, config, 0);

  std::printf("%-22s %12s %8s %8s %12s %14s\n", "strategy", "cost/quest",
              "true%", "false%", "run ms", "true%@70%IDK");
  const char* const strategies[] = {"CellQ-HS", "CellQ-SUMS", "FDQ-BMC",
                                    "Sampling-Uniform", "Sampling-Saturation"};
  for (const char* name : strategies) {
    const std::unique_ptr<Strategy> strategy =
        MakeStrategyByName(name).ValueOrDie();
    const auto start = Clock::now();
    const SessionReport report = normal.Run(*strategy, budget);
    const double run_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    const int asked = report.result.questions_asked;
    // Expert effort (§7.2.8 #1), true violations (#2), false positives
    // (#3), runtime (#4), detection under 70% IDK (#5).
    std::printf("%-22s %12.1f %8.1f %8.1f %12.1f %14.1f\n", name,
                asked == 0 ? 0 : report.result.cost_spent / asked,
                report.metrics.TrueViolationPct(),
                report.metrics.FalseViolationPct(), run_ms,
                hesitant.Run(*strategy, budget).metrics.TrueViolationPct());
  }

  std::printf(
      "\npaper's qualitative claims, checkable above:\n"
      " 1. expert effort: cell (1) < FD (~|LHS|) < tuple (m=%d)\n"
      " 2. true violations: tuple = 100%% >= FD > cell at equal budget\n"
      " 3. false positives: FD = 0 < cell < tuple\n"
      " 4. runtime: tuple cheapest per interaction\n"
      " 5. IDK impact: FD worst, cell mild, tuple recall unaffected\n",
      normal.dirty().NumAttributes());
}

// Ablation studies for the design choices DESIGN.md calls out:
//   (1) relaxation threshold epsilon: candidate-set size and detection
//       quality trade-off (§3.1's "fixed threshold, say 10%");
//   (2) SUMS acceptance threshold: precision/recall trade-off of the
//       truth-discovery cell strategy (§4.2's "expert specified threshold");
//   (3) FDQ-BMC with and without non-minimal (merged) questions (§5).
Session MakeSessionWithEpsilon(const Params& params, double epsilon) {
  SessionConfig config;
  config.candidate_options.relax_threshold = epsilon;
  return MakeSession(params, Dataset::kHospital, {}, config, 0);
}

void Ablations(const Params& params) {
  // (1) relaxation threshold epsilon.
  std::printf(
      "\n-- (1) relaxation threshold epsilon (FDQ-BMC, budget 300) "
      "--\n");
  std::printf("%-10s %12s %12s %12s\n", "epsilon", "candidates", "true%",
              "false%");
  for (double epsilon : {0.02, 0.05, 0.10, 0.20, 0.30}) {
    Session session = MakeSessionWithEpsilon(params, epsilon);
    auto strategy = MakeFdQBudgetedMaxCoverage({});
    SessionReport report = session.Run(*strategy, 300.0);
    std::printf("%-10.2f %12zu %12.1f %12.1f\n", epsilon,
                session.candidates().Size(), report.metrics.TrueViolationPct(),
                report.metrics.FalseViolationPct());
  }

  // (2) SUMS acceptance threshold, at a budget small enough that not every
  // FD can accumulate full evidence -- the threshold then trades precision
  // for recall.
  std::printf("\n-- (2) SUMS acceptance threshold (budget 120) --\n");
  std::printf("%-10s %12s %12s %12s\n", "threshold", "accepted", "true%",
              "false%");
  Session session = MakeSessionWithEpsilon(params, 0.10);
  for (double threshold : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    CellStrategyOptions opts;
    opts.sums_accept_threshold = threshold;
    auto strategy = MakeCellQSums(opts);
    SessionReport report = session.Run(*strategy, 120.0);
    std::printf("%-10.2f %12zu %12.1f %12.1f\n", threshold,
                report.result.accepted_fds.Size(),
                report.metrics.TrueViolationPct(),
                report.metrics.FalseViolationPct());
  }

  // (3) merged (non-minimal) FD questions on/off.
  std::printf("\n-- (3) FDQ-BMC merged questions (budget sweep) --\n");
  std::printf("%-10s %14s %14s\n", "budget", "with-merged", "minimal-only");
  for (double budget : {50.0, 100.0, 200.0, 400.0}) {
    FdStrategyOptions with;
    with.allow_non_minimal = true;
    FdStrategyOptions without;
    without.allow_non_minimal = false;
    auto a = MakeFdQBudgetedMaxCoverage(with);
    auto b = MakeFdQBudgetedMaxCoverage(without);
    std::printf("%-10.0f %14.1f %14.1f\n", budget,
                session.Run(*a, budget).metrics.TrueViolationPct(),
                session.Run(*b, budget).metrics.TrueViolationPct());
  }
}

// Robustness extension (the paper's §9 future work: "enhance the
// robustness of our algorithms where the expert may provide incorrect
// answers for a fixed fraction of questions"):
//   (1) how detection quality degrades as the expert's wrong-answer rate
//       grows, for all three question families (the sweep panels);
//   (2) whether 3-way majority voting over repeated questions (at 1/3 of
//       the effective budget per question) recovers quality.
void VoteTable(const Params& params) {
  std::printf("\n-- mitigation: 3-vote majority (same total effort) --\n");
  std::printf("%-10s %16s %16s %16s %16s\n", "wrong_pct", "FDQ true%",
              "FDQ-3vote true%", "FDQ false%", "FDQ-3vote false%");
  for (double wrong : kWrongPcts) {
    auto fdq = MakeFdQBudgetedMaxCoverage({});
    SessionConfig config;
    config.wrong_rate = wrong / 100.0;
    config.expert_seed = 3000;
    Session plain = MakeSession(params, Dataset::kHospital, {}, config, 0);
    config.expert_votes = 3;
    Session voting = MakeSession(params, Dataset::kHospital, {}, config, 0);
    SessionReport a = plain.Run(*fdq, kRobustnessBudget);
    SessionReport b = voting.Run(*fdq, kRobustnessBudget);
    std::printf("%-10.0f %16.1f %16.1f %16.1f %16.1f\n", wrong,
                a.metrics.TrueViolationPct(), b.metrics.TrueViolationPct(),
                a.metrics.FalseViolationPct(), b.metrics.FalseViolationPct());
  }
}

/// A figure prints its banner (formatted with --rows and --seeds), then
/// its sweep panels, then the table `tail` prints.
struct Figure {
  const char* name;
  const char* banner;
  void (*tail)(const Params&) = nullptr;
};

const Figure kFigures[] = {
    {"stats", nullptr, DatasetStats},
    {"fig3",
     "== Figure 3: cell-based questions, Hospital (rows=%d, seeds=%d) ==\n"},
    {"fig4", "== Figure 4: FD-based questions (rows=%d, seeds=%d) ==\n"},
    {"fig5",
     "== Figure 5: tuple-based questions, Hospital, systematic errors "
     "(rows=%d, seeds=%d) ==\n"},
    {"fig6",
     "== Figure 6: comparative question types, Hospital, systematic errors "
     "(rows=%d, seeds=%d) ==\n"},
    {"fig7_8",
     "== Figures 7-8: impact of error percentage, Hospital, budget=500 "
     "(rows=%d, seeds=%d) ==\n"},
    {"fig9",
     "== Figure 9: impact of IDK answers, Hospital, systematic errors, "
     "budget=1000 (rows=%d, seeds=%d) ==\n"},
    {"fig10",
     "== Figure 10: runtime per interaction vs #tuples, Tax, budget=500 ==\n",
     Fig10Runtime},
    {"summary",
     "== §7.2.8 comparative analysis, Hospital, systematic errors, "
     "budget=1000 (rows=%d) ==\n\n",
     SummaryTable},
    {"ablation", "== Ablations (rows=%d) ==\n", Ablations},
    {"robustness",
     "== Robustness to incorrect expert answers, Hospital, budget=900 "
     "(rows=%d) ==\n",
     VoteTable},
};

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags("paper_figures");
  Params params;
  std::string figure;
  std::string out = "FIGURES.fresh.json";
  for (int i = 1; i < argc; ++i) {
    const auto [flag, value] = FlagParser::Split(argv[i]);
    bool ok = true;
    if (flag == "--rows") {
      ok = flags.Int("--rows", value, 1, &params.rows);
    } else if (flag == "--seeds") {
      ok = flags.Int("--seeds", value, 1, &params.seeds);
    } else if (flag == "--max-lhs") {
      ok = flags.Int("--max-lhs", value, 1, &params.max_lhs);
    } else if (flag == "--figure") {
      figure = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      std::fprintf(stderr, "paper_figures: unknown flag %s\n", argv[i]);
      return 2;
    }
    if (!ok) return 2;
  }
  if (!figure.empty() &&
      std::none_of(std::begin(kFigures), std::end(kFigures),
                   [&](const Figure& f) { return figure == f.name; })) {
    std::fprintf(stderr, "paper_figures: unknown figure '%s'\n",
                 figure.c_str());
    return 2;
  }

  Sweep sweep(params);
  for (const Figure& f : kFigures) {
    if (!figure.empty() && figure != f.name) continue;
    if (f.banner != nullptr) std::printf(f.banner, params.rows, params.seeds);
    sweep.Run(f.name);
    if (f.tail != nullptr) f.tail(params);
  }
  if (!sweep.WriteJson(out)) {
    std::fprintf(stderr, "paper_figures: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
