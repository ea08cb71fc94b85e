#ifndef UGUIDE_CORE_SESSION_H_
#define UGUIDE_CORE_SESSION_H_

#include <memory>
#include <mutex>
#include <string>

#include "core/candidate_gen.h"
#include "core/metrics.h"
#include "core/session_journal.h"
#include "core/strategy.h"
#include "errorgen/error_generator.h"
#include "oracle/cost_model.h"
#include "oracle/resilient_expert.h"
#include "relation/relation.h"
#include "violations/violation_artifact.h"

namespace uguide {

class ThreadPool;

/// Configuration of one experimental session.
struct SessionConfig {
  CandidateGenOptions candidate_options;
  CostModel cost;
  double budget = 500.0;
  /// Probability the simulated expert answers "I don't know" (§7.2.6).
  double idk_rate = 0.0;
  /// Probability an answered question gets the opposite answer (the
  /// unreliable-expert robustness model, §9 future work).
  double wrong_rate = 0.0;
  uint64_t expert_seed = 11;
  /// Majority voting over repeated questions (robustness mitigation):
  /// each question is asked `expert_votes` times and the majority wins.
  /// Note the *caller* should scale the budget by 1/votes to model the
  /// extra effort; Session::Run does this automatically.
  int expert_votes = 1;
};

/// Everything a strategy run produced, plus its evaluation.
struct SessionReport {
  std::string strategy_name;
  StrategyResult result;
  DetectionMetrics metrics;
  /// Retry surcharge included in result.cost_spent (resilient runs only).
  double retry_cost = 0.0;
  /// Questions that degraded to kIdk after retries/deadline ran out.
  int questions_exhausted = 0;
  /// Answered questions served from the journal on resume.
  int questions_replayed = 0;
  /// The live-data epoch the run executed against (0 = the immutable
  /// base relation; see src/live/).
  uint64_t data_version = 0;
};

/// Per-run fault-tolerance options for Session::Run.
struct SessionRunOptions {
  /// When non-empty, every answered question is durably appended here
  /// (write + fsync per record) before the strategy sees the answer.
  std::string journal_path;
  /// Replay `journal_path` before asking live questions, reproducing an
  /// interrupted run bit-for-bit (see DESIGN.md, "Fault tolerance").
  bool resume = false;
  /// Journal durability policy (`--journal-fsync=every|batch`). kBatch
  /// amortizes the per-record fsync; a crash can lose up to one batch of
  /// trailing records, which a resume simply re-asks.
  JournalFsyncMode journal_fsync = JournalFsyncMode::kEvery;
  /// Wrap the expert in the Flaky/Retrying decorators so injected faults
  /// are retried with backoff instead of crashing the strategy.
  bool resilient = false;
  RetryPolicy retry;
  /// Identity of the data the run executes against, pinned into the
  /// journal header (`dhash=`/`dver=`) and stamped onto the report.
  /// Resuming a journal written under a different pair fails with a
  /// header mismatch instead of replaying answers onto different data.
  uint64_t content_hash = 0;
  uint64_t data_version = 0;
};

/// \brief End-to-end experiment harness mirroring Figure 1.
///
/// Construction performs the offline phase once: discover the true FDs
/// Sigma_TC on the clean table (the simulated expert's knowledge, §7.1),
/// materialize E_T (the cells violating Sigma_TC on the dirty table), and
/// run candidate generation (§3.1) on the dirty table. Run() then executes
/// one strategy with a fresh simulated expert and evaluates its detections
/// against E_T; it can be called repeatedly (e.g., across a budget sweep)
/// because strategies are stateless across runs. What the runs share — the
/// violation engine, graph, cell classes and removal counts over the
/// candidates — is the session's ViolationArtifact, built on first use.
class Session {
 public:
  /// Builds a session. `clean` is only used to derive Sigma_TC; the
  /// session keeps copies of the dirty table and ledger.
  static Result<Session> Create(const Relation& clean, DirtyDataset dataset,
                                SessionConfig config = {});

  /// Rebases `base` onto a mutated copy of its dirty relation: the ground
  /// truth, true FDs, candidate set, and config are carried over frozen
  /// (the expert's knowledge does not change when data arrives), while
  /// E_T — the true-violation set — is recomputed against the mutated
  /// table. This is the per-epoch session of the live-mutation layer; the
  /// full-rebuild reference arm of the storm suite calls the same
  /// function, so both arms agree byte-for-byte by construction.
  static Session Rebase(const Session& base, Relation mutated);

  /// Runs `strategy` under the session's budget and evaluates it.
  SessionReport Run(Strategy& strategy) const;

  /// Runs `strategy` under an explicit budget override.
  SessionReport Run(Strategy& strategy, double budget) const;

  /// Runs `strategy` with fault-tolerance options: journaling, crash-safe
  /// resume, and the retry/backoff expert stack. Fails on journal I/O or
  /// header-mismatch errors instead of aborting.
  Result<SessionReport> Run(Strategy& strategy, double budget,
                            const SessionRunOptions& options) const;

  const Relation& dirty() const { return dirty_; }
  /// The error-injection ledger (which cells the generator changed).
  const GroundTruth& truth() const { return truth_; }
  /// E_T: the cells violating the true FDs on the dirty table.
  const TrueViolationSet& true_violations() const { return true_violations_; }
  const FdSet& true_fds() const { return true_fds_; }
  const FdSet& exact_fds() const { return candidates_.exact; }
  const FdSet& candidates() const { return candidates_.candidates; }
  /// True iff candidate generation was cut short by a discovery deadline.
  bool discovery_truncated() const { return candidates_.truncated; }
  /// True iff candidate generation was cut short by its memory cap. The
  /// session consumes the partial lattice identically in both truncation
  /// cases — strategies only ever see the candidate set.
  bool discovery_memory_truncated() const {
    return candidates_.memory_truncated;
  }
  /// Peak partition bytes candidate generation held (CandidateSet's).
  size_t discovery_peak_memory_bytes() const {
    return candidates_.peak_memory_bytes;
  }
  const SessionConfig& config() const { return config_; }

  /// The session's ViolationArtifact over dirty() and candidates(), built
  /// by the first call and shared by every later run (thread-safe: racing
  /// first calls build it once). The first call builds through `pool`
  /// (null = serial, or a temporary pool of candidate_options.num_threads
  /// workers); later calls ignore it. It does not change a byte of the
  /// artifact. A copied or moved Session builds its own on first use: the
  /// artifact reads this session's relation.
  const ViolationArtifact& artifact(ThreadPool* pool = nullptr) const;

 private:
  /// The lazily built artifact. Copying or assigning a Session never
  /// carries it over — the engine points at the source's relation — so the
  /// copy starts with an empty slot of its own.
  class LazyArtifact {
   public:
    LazyArtifact() = default;
    LazyArtifact(const LazyArtifact&) {}
    LazyArtifact& operator=(const LazyArtifact&) {
      slot_ = std::make_unique<Slot>();
      return *this;
    }

    template <typename BuildFn>
    const ViolationArtifact& Get(const BuildFn& build) const {
      std::call_once(slot_->once, [&] { slot_->artifact = build(); });
      return *slot_->artifact;
    }

   private:
    struct Slot {
      std::once_flag once;
      std::unique_ptr<const ViolationArtifact> artifact;
    };
    std::unique_ptr<Slot> slot_ = std::make_unique<Slot>();
  };

  Session(Relation dirty, GroundTruth truth, FdSet true_fds,
          CandidateSet candidates, SessionConfig config);

  Relation dirty_;
  GroundTruth truth_;
  FdSet true_fds_;
  TrueViolationSet true_violations_;
  CandidateSet candidates_;
  SessionConfig config_;
  LazyArtifact artifact_;
};

}  // namespace uguide

#endif  // UGUIDE_CORE_SESSION_H_
