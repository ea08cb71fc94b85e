// Pieces both workloads share: the step-by-step session driver and the
// per-layer metric summaries of a traced run.

#include <algorithm>
#include <cstdio>

#include "core/session_state.h"
#include "driver/workloads.h"
#include "oracle/simulated_expert.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

/// Layers whose self time a traced run reports, in output order.
const char* const kLayers[] = {"discovery", "candidate_gen", "session",
                               "violations", "strategy",     "oracle",
                               "journal",    "protocol",     "manager",
                               "registry",   "live"};

const char* const kClasses[] = {"cell", "fd", "tuple"};

}  // namespace

bool LoadPins(const RunOptions& options,
              std::map<std::string, uint64_t>* pinned, RunResult* result) {
  std::string error;
  if (!LoadPinnedDigests(options.pinned, options.workload, pinned, &error)) {
    result->Invalidate(error);
    return false;
  }
  return true;
}

uguide::Answer AskExpert(uguide::Expert& expert,
                         const uguide::SessionQuestion& question) {
  switch (question.kind) {
    case uguide::QuestionKind::kCell:
      return expert.IsCellErroneous(question.cell);
    case uguide::QuestionKind::kTuple:
      return expert.IsTupleClean(question.row);
    case uguide::QuestionKind::kFd:
      return expert.IsFdValid(question.fd);
  }
  return uguide::Answer::kIdk;
}

std::string StrategyClass(const std::string& strategy_name) {
  if (strategy_name.rfind("CellQ-", 0) == 0) return "cell";
  if (strategy_name.rfind("FDQ-", 0) == 0) return "fd";
  return "tuple";
}

DrivenSession DriveStepped(const uguide::Session& session,
                           const std::string& strategy_name, double budget,
                           Tracer& tracer, int64_t session_id,
                           uint64_t content_hash) {
  DrivenSession out;
  out.id = session_id;
  out.strategy = strategy_name;
  auto strategy = uguide::MakeStrategyByName(strategy_name);
  if (!strategy.ok()) {
    out.error = strategy.status().ToString();
    return out;
  }
  // The expert stack Session::Run builds (one vote, no resilience layer).
  const uguide::SessionConfig& config = session.config();
  uguide::SimulatedExpert expert(
      &session.true_violations(), &session.truth(),
      session.dirty().NumAttributes(), session.true_fds(), config.idk_rate,
      config.expert_seed, config.wrong_rate);
  uguide::SessionStepOptions step;
  step.content_hash = content_hash;

  ScopedSpan root(tracer, "bench.session", -1, session_id);
  const int parent = root.index();
  auto mark = Clock::now();
  int span = tracer.Begin("strategy.init", parent, session_id);
  auto machine = uguide::SessionStateMachine::Start(session, **strategy,
                                                    budget, std::move(step));
  if (!machine.ok()) {
    tracer.End(span);
    out.error = machine.status().ToString();
    return out;
  }
  std::optional<uguide::SessionQuestion> question = (*machine)->NextQuestion();
  tracer.End(span);
  if (question.has_value()) out.init_ms = MsBetween(mark, Clock::now());

  while (question.has_value()) {
    ++out.questions;
    const auto asked = Clock::now();
    span = tracer.Begin("oracle.answer", parent, session_id);
    uguide::AnswerSubmission submission;
    submission.answer = AskExpert(expert, *question);
    tracer.End(span);
    mark = Clock::now();
    out.oracle_us.push_back(MsBetween(asked, mark) * 1e3);

    span = tracer.Begin("strategy.select", parent, session_id);
    uguide::Status submitted = (*machine)->SubmitAnswer(submission);
    question = submitted.ok() ? (*machine)->NextQuestion() : std::nullopt;
    tracer.End(span);
    if (!submitted.ok()) {
      out.error = submitted.ToString();
      return out;
    }
    if (question.has_value()) out.select_ms.push_back(MsBetween(mark, Clock::now()));
  }

  // The finish interval starts at the last answer (or at the start when the
  // strategy asked nothing), so it covers the strategy's wind-down too.
  span = tracer.Begin("session.finish", parent, session_id);
  auto report = (*machine)->Finish();
  tracer.End(span);
  out.finish_ms = MsBetween(mark, Clock::now());
  if (!report.ok()) {
    out.error = report.status().ToString();
    return out;
  }
  out.report = uguide::SerializeSessionReport(*report);
  return out;
}

void AddStrategyLayerMetrics(const std::vector<DrivenSession>& sessions,
                             RunResult* result) {
  std::vector<double> oracle_us;
  for (const char* klass : kClasses) {
    std::vector<double> init, select, finish;
    double questions = 0;
    for (const DrivenSession& s : sessions) {
      if (StrategyClass(s.strategy) != klass) continue;
      if (s.init_ms >= 0) init.push_back(s.init_ms);
      select.insert(select.end(), s.select_ms.begin(), s.select_ms.end());
      finish.push_back(s.finish_ms);
      questions += s.questions;
    }
    const std::string k = klass;
    result->Add("strategy.init_ms_p50." + k, Percentile(init, 50), "ms");
    result->Add("strategy.select_ms_p50." + k, Percentile(select, 50), "ms");
    result->Add("strategy.select_ms_p90." + k, Percentile(select, 90), "ms");
    result->Add("strategy.questions." + k, questions, "count");
    result->Add("session.finish_ms_p50." + k, Percentile(finish, 50), "ms");
  }
  for (const DrivenSession& s : sessions) {
    oracle_us.insert(oracle_us.end(), s.oracle_us.begin(), s.oracle_us.end());
  }
  result->Add("oracle.answer_us_p50", Percentile(oracle_us, 50), "us");
}

void AddSampleNote(RunResult* result, const std::string& name,
                   const std::vector<double>& samples) {
  const double best =
      HighestSupportedPercentile(samples.size(), {90.0, 99.0, 99.9});
  char line[200];
  std::snprintf(line, sizeof(line),
                "%s: n=%zu p50=%.4f, highest supported percentile p%g=%.4f",
                name.c_str(), samples.size(), Percentile(samples, 50),
                best < 0 ? 50.0 : best,
                Percentile(samples, best < 0 ? 50.0 : best));
  result->Note(line);
}

void AddTraceMetrics(const std::vector<Span>& spans, double plain_ms,
                     double traced_ms, RunResult* result) {
  std::map<std::string, double> self = LayerSelfTimesMs(spans);
  for (const char* layer : kLayers) {
    result->Add(std::string("self_ms.") + layer, self[layer], "ms");
  }
  result->Add("self_ms.unattributed", self["unattributed"], "ms");
  result->Add("trace.spans", static_cast<double>(spans.size()), "count");
  result->Add("trace.overhead_frac",
              plain_ms > 0 ? (traced_ms - plain_ms) / plain_ms : 0.0, "frac");
}

}  // namespace perfbench
