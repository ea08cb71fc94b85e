#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/session_state.h"
#include "driver/bench_lib.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// The uguided binary (serve-mix).
  std::string uguided;
  /// Scratch directory for journals, port files and span logs.
  std::string out_dir;
  /// The pinned report digests (perfbench/pinned_reports.txt).
  std::string pinned;
};

/// Loads the digests pinned for options.workload; on failure marks the run
/// invalid and returns false.
bool LoadPins(const RunOptions& options,
              std::map<std::string, uint64_t>* pinned, RunResult* result);

/// offline-tax: the paper-experiment path in-process over Tax.
void RunOfflineTax(const RunOptions& options, RunResult* result);

/// serve-mix: the shipped daemon over loopback TCP.
void RunServeMix(const RunOptions& options, RunResult* result);

/// Puts `question` to `expert` (the dispatch DriveSession does).
uguide::Answer AskExpert(uguide::Expert& expert,
                         const uguide::SessionQuestion& question);

/// Strategy family used to split per-layer metrics: "cell", "fd", "tuple".
std::string StrategyClass(const std::string& strategy_name);

/// Timings of one session driven step by step through SessionStateMachine,
/// exactly as Session::Run drives it, with spans around every call into the
/// strategy, the simulated expert and the report evaluation.
struct DrivenSession {
  int64_t id = -1;
  std::string strategy;
  double init_ms = -1.0;  ///< Start -> first question (-1: no question).
  std::vector<double> select_ms;  ///< SubmitAnswer -> next question.
  double finish_ms = 0.0;         ///< Last SubmitAnswer -> report.
  std::vector<double> oracle_us;  ///< Simulated expert answer times.
  int questions = 0;
  std::string report;  ///< SerializeSessionReport bytes ("" on failure).
  std::string error;
};

/// Drives `strategy_name` over `session`, with the simulated expert
/// Session::Run builds. `content_hash` is the data identity a served session
/// stamps on its report (0 offline).
DrivenSession DriveStepped(const uguide::Session& session,
                           const std::string& strategy_name, double budget,
                           Tracer& tracer, int64_t session_id,
                           uint64_t content_hash = 0);

/// Adds the per-layer metrics of driven sessions: strategy.init_ms_p50,
/// strategy.select_ms_p50/p90, strategy.questions and session.finish_ms_p50
/// per strategy class, plus oracle.answer_us_p50.
void AddStrategyLayerMetrics(const std::vector<DrivenSession>& sessions,
                             RunResult* result);

/// Adds a table note for a latency sample: its count, median, and the
/// highest percentile with at least kMinTailSamples samples beyond it.
void AddSampleNote(RunResult* result, const std::string& name,
                   const std::vector<double>& samples);

/// Adds the trace summary: self time per layer ("self_ms.<layer>"), the
/// time no layer covers ("self_ms.unattributed"), the span count, and the
/// tracing overhead as the relative wall-time difference between the same
/// work run untraced (`plain_ms`) and traced (`traced_ms`).
void AddTraceMetrics(const std::vector<Span>& spans, double plain_ms,
                     double traced_ms, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
