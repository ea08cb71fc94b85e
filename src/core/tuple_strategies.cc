#include "core/tuple_strategies.h"

#include <algorithm>
#include <unordered_set>
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
  ArtifactRef artifact(ctx.artifact, ctx.dirty, *ctx.candidates, ctx.pool);
  const std::vector<int>& counts = artifact->TupleViolationCounts();
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

// Common sampling loop: `draw` produces the next tuple to validate.
template <typename DrawFn>
StrategyResult RunSamplingLoop(const QuestionContext& ctx,
                               const TupleStrategyOptions& options,
                               DrawFn draw) {
  StrategyResult result;
  const double cost = ctx.cost.TupleCost(ctx.dirty->NumAttributes());
  std::vector<bool> asked(static_cast<size_t>(ctx.dirty->NumRows()), false);
  std::vector<TupleId> sample;
  while (result.cost_spent + cost <= ctx.budget) {
    TupleId t = draw(asked, sample);
    if (t < 0) break;
    asked[static_cast<size_t>(t)] = true;
    const Answer answer = ctx.expert->IsTupleClean(t);
    result.cost_spent += cost;
    ++result.questions_asked;
    if (answer == Answer::kYes) sample.push_back(t);
  }
  result.accepted_fds = DiscoverSampleFds(*ctx.dirty, sample, options);
  return result;
}

class TupleSamplingUniform : public Strategy {
 public:
  explicit TupleSamplingUniform(const TupleStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "Sampling-Uniform"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    Rng rng(options_.seed);
    WeightedDraw drawer(std::vector<double>(
        static_cast<size_t>(ctx.dirty->NumRows()), 1.0));
    return RunSamplingLoop(
        ctx, options_,
        [&](const std::vector<bool>& asked, const std::vector<TupleId>&) {
          TupleId t = drawer.Draw(rng, asked);
          // The loop marks the drawn tuple asked unconditionally.
          if (t >= 0) drawer.MarkAsked(t);
          return t;
        });
  }

 private:
  TupleStrategyOptions options_;
};

class TupleSamplingViolationWeighting : public Strategy {
 public:
  explicit TupleSamplingViolationWeighting(
      const TupleStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "Sampling-Violation"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    Rng rng(options_.seed);
    WeightedDraw drawer(ViolationWeights(ctx));
    return RunSamplingLoop(
        ctx, options_,
        [&](const std::vector<bool>& asked, const std::vector<TupleId>&) {
          TupleId t = drawer.Draw(rng, asked);
          if (t >= 0) drawer.MarkAsked(t);
          return t;
        });
  }

 private:
  TupleStrategyOptions options_;
};

class TupleSamplingSaturationSets : public Strategy {
 public:
  explicit TupleSamplingSaturationSets(const TupleStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "Sampling-Saturation"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    Rng rng(options_.seed);
    const int m = ctx.dirty->NumAttributes();

    // Saturated sets of the FDs discovered on the dirty table (Alg. 8
    // line 2). The full attribute set can never be the agree-set of two
    // distinct tuples, so it is dropped.
    FdSet exact;
    if (ctx.exact_fds != nullptr) {
      exact = *ctx.exact_fds;
    } else {
      TaneOptions tane;
      tane.max_lhs_size = options_.max_lhs_size;
      exact = DiscoverFds(*ctx.dirty, tane).ValueOrDie();
    }
    std::unordered_set<AttributeSet, AttributeSetHash> saturated;
    for (const AttributeSet& w : SaturatedSets(
             exact, m, static_cast<size_t>(options_.max_saturated_sets))) {
      if (w != AttributeSet::Full(m)) saturated.insert(w);
    }

    WeightedDraw drawer(ViolationWeights(ctx));

    // A sampled tuple is useful if pairing it with an accepted tuple
    // realizes an uncovered saturated set (the Armstrong pair condition).
    // The first two accepted tuples bootstrap the sample.
    auto realized_sets = [&](TupleId t, const std::vector<TupleId>& sample) {
      std::vector<AttributeSet> hits;
      for (TupleId other : sample) {
        AttributeSet agree = ctx.dirty->AgreeSet(t, other);
        if (saturated.contains(agree)) hits.push_back(agree);
      }
      return hits;
    };

    StrategyResult result;
    const double cost = ctx.cost.TupleCost(m);
    std::vector<bool> asked(static_cast<size_t>(ctx.dirty->NumRows()), false);
    std::vector<TupleId> sample;
    while (result.cost_spent + cost <= ctx.budget) {
      // Bounded rejection sampling for a saturating tuple; if none is
      // found, fall back to plain violation-weighted sampling so the
      // budget is still spent productively.
      TupleId chosen = -1;
      TupleId fallback = -1;
      for (int attempt = 0; attempt < 64; ++attempt) {
        TupleId t = drawer.Draw(rng, asked);
        if (t < 0) break;
        fallback = t;
        if (sample.size() < 2 || !realized_sets(t, sample).empty()) {
          chosen = t;
          break;
        }
      }
      if (chosen < 0) chosen = fallback;
      if (chosen < 0) break;
      asked[static_cast<size_t>(chosen)] = true;
      drawer.MarkAsked(chosen);
      const Answer answer = ctx.expert->IsTupleClean(chosen);
      result.cost_spent += cost;
      ++result.questions_asked;
      if (answer != Answer::kYes) continue;
      // Certified clean: retire the saturated sets it realizes (Alg. 8
      // line 7), then add it to the sample.
      for (const AttributeSet& w : realized_sets(chosen, sample)) {
        saturated.erase(w);
      }
      sample.push_back(chosen);
    }
    result.accepted_fds = DiscoverSampleFds(*ctx.dirty, sample, options_);
    return result;
  }

 private:
  TupleStrategyOptions options_;
};

class TupleQOracle : public Strategy {
 public:
  explicit TupleQOracle(const TupleStrategyOptions& options)
      : options_(options) {}

  std::string_view name() const override { return "TupleQ-Oracle"; }

  StrategyResult Run(const QuestionContext& ctx) override {
    UGUIDE_CHECK(ctx.injected != nullptr && ctx.true_fds != nullptr)
        << "TupleQ-Oracle requires the ledger and the true FD set";
    Rng rng(options_.seed);
    const int m = ctx.dirty->NumAttributes();
    StrategyResult result;
    const double cost = ctx.cost.TupleCost(m);

    // Candidate FDs that are actually false positives; the oracle picks
    // clean tuples that act as counterexamples to as many as possible.
    ClosureEngine true_closure(*ctx.true_fds);
    std::vector<Fd> false_fds;
    for (const Fd& fd : *ctx.candidates) {
      if (!true_closure.Implies(fd)) false_fds.push_back(fd);
    }
    std::vector<bool> false_alive(false_fds.size(), true);

    std::vector<TupleId> clean_rows;
    for (TupleId r = 0; r < ctx.dirty->NumRows(); ++r) {
      if (!ctx.injected->IsTupleDirty(r, m)) clean_rows.push_back(r);
    }
    std::vector<bool> used(clean_rows.size(), false);
    std::vector<TupleId> sample;

    // A false FD X -> A is invalidated by the pair (t, t') when the tuples
    // agree on X but not on A. The agree sets of `t` with the sample are
    // computed once per candidate tuple, not once per alive false FD.
    std::vector<AttributeSet> agree_sets;
    auto load_agree_sets = [&](TupleId t) {
      agree_sets.clear();
      for (TupleId other : sample) {
        agree_sets.push_back(ctx.dirty->AgreeSet(t, other));
      }
    };
    auto killed = [&](const Fd& fd) {
      for (const AttributeSet& agree : agree_sets) {
        if (fd.lhs.IsSubsetOf(agree) && !agree.Contains(fd.rhs)) return true;
      }
      return false;
    };
    auto kills = [&](TupleId t) {
      load_agree_sets(t);
      int count = 0;
      for (size_t i = 0; i < false_fds.size(); ++i) {
        if (false_alive[i] && killed(false_fds[i])) ++count;
      }
      return count;
    };

    while (result.cost_spent + cost <= ctx.budget && !clean_rows.empty()) {
      bool any_false_alive = false;
      for (bool alive : false_alive) any_false_alive |= alive;
      if (!sample.empty() && !any_false_alive) break;  // goal reached

      // Score a random pool of unused clean tuples.
      int best_index = -1;
      int best_kills = -1;
      for (int attempt = 0;
           attempt < options_.oracle_pool &&
           attempt < static_cast<int>(clean_rows.size());
           ++attempt) {
        size_t i = rng.NextBounded(clean_rows.size());
        if (used[i]) continue;
        const int k = sample.empty() ? 0 : kills(clean_rows[i]);
        if (k > best_kills) {
          best_kills = k;
          best_index = static_cast<int>(i);
        }
      }
      if (best_index < 0) break;
      used[static_cast<size_t>(best_index)] = true;
      const TupleId t = clean_rows[static_cast<size_t>(best_index)];
      const Answer answer = ctx.expert->IsTupleClean(t);
      result.cost_spent += cost;
      ++result.questions_asked;
      if (answer != Answer::kYes) continue;  // IDK wastes the question
      // Retire the false FDs this tuple kills before adding it.
      load_agree_sets(t);
      for (size_t i = 0; i < false_fds.size(); ++i) {
        if (false_alive[i] && killed(false_fds[i])) false_alive[i] = false;
      }
      sample.push_back(t);
    }

    result.accepted_fds = DiscoverSampleFds(*ctx.dirty, sample, options_);
    return result;
  }

 private:
  TupleStrategyOptions options_;
};

}  // namespace

std::unique_ptr<Strategy> MakeTupleSamplingUniform(
    const TupleStrategyOptions& options) {
  return std::make_unique<TupleSamplingUniform>(options);
}

std::unique_ptr<Strategy> MakeTupleSamplingViolationWeighting(
    const TupleStrategyOptions& options) {
  return std::make_unique<TupleSamplingViolationWeighting>(options);
}

std::unique_ptr<Strategy> MakeTupleSamplingSaturationSets(
    const TupleStrategyOptions& options) {
  return std::make_unique<TupleSamplingSaturationSets>(options);
}

std::unique_ptr<Strategy> MakeTupleQOracle(
    const TupleStrategyOptions& options) {
  return std::make_unique<TupleQOracle>(options);
}

}  // namespace uguide
