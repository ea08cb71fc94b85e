#ifndef UGUIDE_ORACLE_SIMULATED_EXPERT_H_
#define UGUIDE_ORACLE_SIMULATED_EXPERT_H_

#include <cstdint>

#include "common/rng.h"
#include "errorgen/error_generator.h"
#include "fd/closure.h"
#include "fd/fd.h"
#include "oracle/expert.h"
#include "relation/relation.h"
#include "violations/true_violation_set.h"

namespace uguide {

/// \brief A simulated domain expert, mirroring the paper's "Workflow
/// Simulation" (§7.1) exactly.
///
/// The expert holds the true FD set Sigma_TC (discovered on the clean
/// table), the set E_T of cells violating Sigma_TC on the dirty table, and
/// the error generator's ledger, and answers:
/// - cell questions: erroneous iff the cell violates some true FD (both
///   sides of a violating pair count -- §4's "answers in the affirmative if
///   the cell violates one or more FDs");
/// - tuple questions: clean iff every cell carries its original value
///   (§2.1's "has correct values in every cell");
/// - FD questions: valid iff Sigma_TC implies the FD (so specializations of
///   true minimal FDs are also affirmed; the expert is not assumed to apply
///   Armstrong inference beyond that).
///
/// With probability `idk_rate` (per question) the expert declines to answer
/// ("I don't know", §7.2.6); with probability `wrong_rate` an answered
/// question gets the *opposite* answer (the unreliable-expert model of the
/// paper's future-work §9). The expert counts questions by type for
/// reporting; budget accounting is the strategies' job.
class SimulatedExpert : public Expert {
 public:
  /// `violations` (E_T on the dirty table) and `ledger` (the injected-cell
  /// record) must outlive the expert. `num_attributes` is the dirty table's
  /// width (for tuple questions).
  SimulatedExpert(const TrueViolationSet* violations,
                  const GroundTruth* ledger, int num_attributes,
                  FdSet true_fds, double idk_rate = 0.0, uint64_t seed = 11,
                  double wrong_rate = 0.0);

  /// "Is this cell erroneous?" kYes = erroneous.
  Answer IsCellErroneous(const Cell& cell) override;

  /// "Is this tuple clean?" kYes = no cell was changed.
  Answer IsTupleClean(TupleId row) override;

  /// "Is this FD valid?" kYes = implied by the true FDs.
  Answer IsFdValid(const Fd& fd) override;

  /// The true FD set the expert validates against (used by oracle-mode
  /// baselines, which are allowed to peek, §7.1).
  const FdSet& true_fds() const { return closure_.fds(); }

  int cell_questions() const { return cell_questions_; }
  int tuple_questions() const { return tuple_questions_; }
  int fd_questions() const { return fd_questions_; }
  int idk_answers() const { return idk_answers_; }
  int wrong_answers() const { return wrong_answers_; }

 private:
  bool DeclineToAnswer();
  Answer MaybeFlip(Answer truthful);

  const TrueViolationSet* violations_;
  const GroundTruth* ledger_;
  int num_attributes_;
  ClosureEngine closure_;
  double idk_rate_;
  double wrong_rate_;
  Rng rng_;
  int cell_questions_ = 0;
  int tuple_questions_ = 0;
  int fd_questions_ = 0;
  int idk_answers_ = 0;
  int wrong_answers_ = 0;
};

/// \brief Robustness mitigation for unreliable experts (§9 future work):
/// asks the inner expert `votes` times per question and returns the
/// majority answer (IDK responses do not vote; all-IDK yields IDK).
///
/// Each wrapped question consumes `votes` inner questions, so callers
/// should scale their budget accordingly (see the robustness figure of
/// bench/paper_figures).
class MajorityVoteExpert : public Expert {
 public:
  /// `votes` should be odd; `inner` must outlive the wrapper.
  MajorityVoteExpert(Expert* inner, int votes);

  Answer IsCellErroneous(const Cell& cell) override;
  Answer IsTupleClean(TupleId row) override;
  Answer IsFdValid(const Fd& fd) override;

 private:
  template <typename AskFn>
  Answer Majority(AskFn ask);

  Expert* inner_;
  int votes_;
};

}  // namespace uguide

#endif  // UGUIDE_ORACLE_SIMULATED_EXPERT_H_
