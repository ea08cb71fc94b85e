#include "core/tuple_strategies.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "discovery/tane.h"
#include "fd/closure.h"
#include "violations/violation_artifact.h"

namespace uguide {

namespace {

// Discovers the (minimal) FDs of the accepted sample TS; these are the
// strategy's accepted FDs (the concise representation of the possibly
// exponential Sigma_TS, §6). An empty sample accepts nothing; a one-tuple
// sample collapses to the constant-column FDs {} -> A, which correctly
// represents "every candidate FD still holds".
FdSet DiscoverSampleFds(const Relation& dirty,
                        const std::vector<TupleId>& sample,
                        const TupleStrategyOptions& options) {
  if (sample.empty()) return FdSet();
  Relation ts = dirty.SelectRows(sample);
  TaneOptions tane;
  tane.max_error = 0.0;
  tane.max_lhs_size = options.max_lhs_size;
  return DiscoverFds(ts, tane).ValueOrDie();
}

// Weighted sampling weights of Algorithm 7: |Sigma_cand| minus the number
// of candidate FDs whose removal set contains the tuple (the artifact's
// per-tuple counts), normalized so every tuple keeps a non-negative chance.
std::vector<double> ViolationWeights(const QuestionContext& ctx) {
  const std::vector<int>& counts =
      RequireArtifact(ctx).TupleViolationCounts();
  const double total = static_cast<double>(ctx.candidates->Size());
  std::vector<double> weights(counts.size());
  bool any_positive = false;
  for (size_t i = 0; i < counts.size(); ++i) {
    weights[i] = std::max(0.0, total - counts[i]);
    any_positive = any_positive || weights[i] > 0.0;
  }
  if (!any_positive) {
    std::fill(weights.begin(), weights.end(), 1.0);
  }
  return weights;
}

// Weighted sampler over the unasked tuples. The remaining weighted mass is
// maintained incrementally — MarkAsked subtracts the retiring tuple's
// weight — instead of being re-summed over all unasked tuples before each
// draw. Every weight is a small integer-valued double (|Sigma_cand| minus
// a count, or the all-ones fallback), so the running difference is exact
// and the mass equals the reference re-summation bit for bit; the rng draw
// sequence is therefore unchanged.
class WeightedDraw {
 public:
  explicit WeightedDraw(std::vector<double> weights)
      : weights_(std::move(weights)) {
    for (double w : weights_) remaining_ += w;
  }

  // Call exactly when the caller marks `t` asked.
  void MarkAsked(TupleId t) { remaining_ -= weights_[static_cast<size_t>(t)]; }

  // Draws an unasked tuple by weight; returns -1 when every tuple was
  // asked. Does not itself retire the tuple (saturation sampling draws
  // with rejection, so a drawn tuple may stay in the pool).
  TupleId Draw(Rng& rng, const std::vector<bool>& asked) const {
    if (remaining_ <= 0.0) {
      // Weighted mass exhausted; fall back to the first unasked tuple.
      for (size_t i = 0; i < weights_.size(); ++i) {
        if (!asked[i]) return static_cast<TupleId>(i);
      }
      return -1;
    }
    double r = rng.NextDouble() * remaining_;
    for (size_t i = 0; i < weights_.size(); ++i) {
      if (asked[i]) continue;
      r -= weights_[i];
      if (r < 0.0) return static_cast<TupleId>(i);
    }
    for (size_t i = weights_.size(); i-- > 0;) {
      if (!asked[i]) return static_cast<TupleId>(i);
    }
    return -1;
  }

 private:
  std::vector<double> weights_;
  double remaining_ = 0.0;
};

// The steps every tuple strategy shares: the accepted sample TS, the
// run's spend, and the tuple Next last asked, which Apply's answer is
// about. Finish discovers Sigma_TS over the sample.
class TupleSteps : public StrategyRun {
 public:
  TupleSteps(const QuestionContext& ctx, const TupleStrategyOptions& options)
      : dirty_(*ctx.dirty),
        options_(options),
        rng_(options.seed),
        budget_(ctx.budget),
        cost_(ctx.cost.TupleCost(ctx.dirty->NumAttributes())) {}

  StrategyResult Finish() override {
    result_.accepted_fds = DiscoverSampleFds(dirty_, sample_, options_);
    return std::move(result_);
  }

 protected:
  bool Affordable() const { return result_.cost_spent + cost_ <= budget_; }

  // Charges one question about tuple `t`.
  Question Ask(TupleId t) {
    asked_ = t;
    result_.cost_spent += cost_;
    ++result_.questions_asked;
    return Question{.kind = QuestionKind::kTuple, .row = t, .cost = cost_};
  }

  const Relation& dirty_;
  const TupleStrategyOptions options_;
  Rng rng_;
  std::vector<TupleId> sample_;
  TupleId asked_ = -1;

 private:
  const double budget_;
  const double cost_;
  StrategyResult result_;
};

// Uniform and violation-weighted sampling (Algs. 6 and 7): each question
// draws an unasked tuple by weight, and a certified clean one joins TS.
class WeightedSamplingSteps : public TupleSteps {
 public:
  WeightedSamplingSteps(const QuestionContext& ctx,
                        const TupleStrategyOptions& options,
                        std::vector<double> weights)
      : TupleSteps(ctx, options),
        drawer_(std::move(weights)),
        asked_rows_(static_cast<size_t>(ctx.dirty->NumRows()), false) {}

  std::optional<Question> Next() override {
    if (!Affordable()) return std::nullopt;
    const TupleId t = drawer_.Draw(rng_, asked_rows_);
    if (t < 0) return std::nullopt;
    drawer_.MarkAsked(t);
    asked_rows_[static_cast<size_t>(t)] = true;
    return Ask(t);
  }

  void Apply(Answer answer) override {
    if (answer == Answer::kYes) sample_.push_back(asked_);
  }

 private:
  WeightedDraw drawer_;
  std::vector<bool> asked_rows_;
};

// Uniform sampling (Alg. 6).
class UniformSteps : public WeightedSamplingSteps {
 public:
  UniformSteps(const QuestionContext& ctx, const TupleStrategyOptions& options)
      : WeightedSamplingSteps(ctx, options, UniformWeights(ctx)) {}

 private:
  static std::vector<double> UniformWeights(const QuestionContext& ctx) {
    return std::vector<double>(static_cast<size_t>(ctx.dirty->NumRows()), 1.0);
  }
};

// Violation-weighted sampling (Alg. 7).
class ViolationSteps : public WeightedSamplingSteps {
 public:
  ViolationSteps(const QuestionContext& ctx,
                 const TupleStrategyOptions& options)
      : WeightedSamplingSteps(ctx, options, ViolationWeights(ctx)) {}
};

// Saturation-set sampling (Alg. 8).
class SaturationSteps : public TupleSteps {
 public:
  SaturationSteps(const QuestionContext& ctx,
                  const TupleStrategyOptions& options)
      : TupleSteps(ctx, options),
        family_(Family(ctx, options)),
        limit_(family_->Limit(
            static_cast<size_t>(options.max_saturated_sets))),
        retired_(static_cast<size_t>(limit_), false),
        drawer_(ViolationWeights(ctx)),
        asked_rows_(static_cast<size_t>(ctx.dirty->NumRows()), false) {}

  std::optional<Question> Next() override {
    if (!Affordable()) return std::nullopt;
    // Bounded rejection sampling for a saturating tuple; if none is
    // found, fall back to plain violation-weighted sampling so the
    // budget is still spent productively.
    TupleId chosen = -1;
    TupleId fallback = -1;
    for (int attempt = 0; attempt < 64; ++attempt) {
      TupleId t = drawer_.Draw(rng_, asked_rows_);
      if (t < 0) break;
      fallback = t;
      if (sample_.size() < 2 || Realizes(t)) {
        chosen = t;
        break;
      }
    }
    if (chosen < 0) chosen = fallback;
    if (chosen < 0) return std::nullopt;
    asked_rows_[static_cast<size_t>(chosen)] = true;
    drawer_.MarkAsked(chosen);
    return Ask(chosen);
  }

  void Apply(Answer answer) override {
    if (answer != Answer::kYes) return;
    // Certified clean: retire the saturated sets it realizes (Alg. 8
    // line 7), then add it to the sample.
    for (TupleId other : sample_) {
      const int i = Uncovered(dirty_.AgreeSet(asked_, other));
      if (i >= 0) retired_[static_cast<size_t>(i)] = true;
    }
    sample_.push_back(asked_);
  }

 private:
  // The saturated sets of the FDs discovered on the dirty table (Alg. 8
  // line 2), shared through the artifact.
  static std::shared_ptr<const SaturatedFamily> Family(
      const QuestionContext& ctx, const TupleStrategyOptions& options) {
    UGUIDE_CHECK(ctx.exact_fds != nullptr)
        << "Sampling-Saturation requires the exact FD set";
    return RequireArtifact(ctx).SaturatedSetFamily(
        *ctx.exact_fds, static_cast<size_t>(options.max_saturated_sets));
  }

  // The family index of `agree` if it is one of this run's saturated sets
  // (the first limit_ of the family) and no accepted tuple retired it
  // yet; -1 otherwise.
  int Uncovered(const AttributeSet& agree) const {
    const int i = family_->IndexOf(agree);
    return i >= 0 && i < limit_ && !retired_[static_cast<size_t>(i)] ? i : -1;
  }

  // A sampled tuple is useful if pairing it with an accepted tuple
  // realizes an uncovered saturated set (the Armstrong pair condition).
  // The first two accepted tuples bootstrap the sample.
  bool Realizes(TupleId t) const {
    for (TupleId other : sample_) {
      if (Uncovered(dirty_.AgreeSet(t, other)) >= 0) return true;
    }
    return false;
  }

  const std::shared_ptr<const SaturatedFamily> family_;
  const int limit_;
  std::vector<bool> retired_;
  WeightedDraw drawer_;
  std::vector<bool> asked_rows_;
};

class TupleOracleSteps : public TupleSteps {
 public:
  TupleOracleSteps(const QuestionContext& ctx,
                   const TupleStrategyOptions& options)
      : TupleSteps(ctx, options) {
    UGUIDE_CHECK(ctx.injected != nullptr && ctx.true_fds != nullptr)
        << "TupleQ-Oracle requires the ledger and the true FD set";
    // Candidate FDs that are actually false positives; the oracle picks
    // clean tuples that act as counterexamples to as many as possible.
    ClosureEngine true_closure(*ctx.true_fds);
    for (const Fd& fd : *ctx.candidates) {
      if (!true_closure.Implies(fd)) false_fds_.push_back(fd);
    }
    false_alive_.assign(false_fds_.size(), true);
    const int m = ctx.dirty->NumAttributes();
    for (TupleId r = 0; r < ctx.dirty->NumRows(); ++r) {
      if (!ctx.injected->IsTupleDirty(r, m)) clean_rows_.push_back(r);
    }
    used_.assign(clean_rows_.size(), false);
  }

  std::optional<Question> Next() override {
    if (!Affordable() || clean_rows_.empty()) return std::nullopt;
    bool any_false_alive = false;
    for (bool alive : false_alive_) any_false_alive |= alive;
    if (!sample_.empty() && !any_false_alive) {
      return std::nullopt;  // goal reached
    }

    // Score a random pool of unused clean tuples.
    int best_index = -1;
    int best_kills = -1;
    for (int attempt = 0;
         attempt < options_.oracle_pool &&
         attempt < static_cast<int>(clean_rows_.size());
         ++attempt) {
      size_t i = rng_.NextBounded(clean_rows_.size());
      if (used_[i]) continue;
      const int k = sample_.empty() ? 0 : Kills(clean_rows_[i]);
      if (k > best_kills) {
        best_kills = k;
        best_index = static_cast<int>(i);
      }
    }
    if (best_index < 0) return std::nullopt;
    used_[static_cast<size_t>(best_index)] = true;
    return Ask(clean_rows_[static_cast<size_t>(best_index)]);
  }

  void Apply(Answer answer) override {
    if (answer != Answer::kYes) return;  // IDK wastes the question
    // Retire the false FDs this tuple kills before adding it.
    LoadAgreeSets(asked_);
    for (size_t i = 0; i < false_fds_.size(); ++i) {
      if (false_alive_[i] && Killed(false_fds_[i])) false_alive_[i] = false;
    }
    sample_.push_back(asked_);
  }

 private:
  // A false FD X -> A is invalidated by the pair (t, t') when the tuples
  // agree on X but not on A. The agree sets of `t` with the sample are
  // computed once per candidate tuple, not once per alive false FD.
  void LoadAgreeSets(TupleId t) {
    agree_sets_.clear();
    for (TupleId other : sample_) {
      agree_sets_.push_back(dirty_.AgreeSet(t, other));
    }
  }

  bool Killed(const Fd& fd) const {
    for (const AttributeSet& agree : agree_sets_) {
      if (fd.lhs.IsSubsetOf(agree) && !agree.Contains(fd.rhs)) return true;
    }
    return false;
  }

  int Kills(TupleId t) {
    LoadAgreeSets(t);
    int count = 0;
    for (size_t i = 0; i < false_fds_.size(); ++i) {
      if (false_alive_[i] && Killed(false_fds_[i])) ++count;
    }
    return count;
  }

  std::vector<Fd> false_fds_;
  std::vector<bool> false_alive_;
  std::vector<TupleId> clean_rows_;
  std::vector<bool> used_;
  std::vector<AttributeSet> agree_sets_;
};

}  // namespace

std::unique_ptr<Strategy> MakeTupleSamplingUniform(
    const TupleStrategyOptions& options) {
  return MakeStepsStrategy<UniformSteps>("Sampling-Uniform", options);
}

std::unique_ptr<Strategy> MakeTupleSamplingViolationWeighting(
    const TupleStrategyOptions& options) {
  return MakeStepsStrategy<ViolationSteps>("Sampling-Violation", options);
}

std::unique_ptr<Strategy> MakeTupleSamplingSaturationSets(
    const TupleStrategyOptions& options) {
  return MakeStepsStrategy<SaturationSteps>("Sampling-Saturation", options);
}

std::unique_ptr<Strategy> MakeTupleQOracle(
    const TupleStrategyOptions& options) {
  return MakeStepsStrategy<TupleOracleSteps>("TupleQ-Oracle", options);
}

}  // namespace uguide
