#include "server/admission.h"

#include <algorithm>
#include <cmath>

#include "common/fault_injection.h"

namespace uguide {

namespace {

/// Bucket maps larger than this get pruned of idle (full) buckets on the
/// next refusal-free pass; see PruneBucketsLocked.
constexpr size_t kMaxBuckets = 4096;

double MsBetween(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {}

AdmissionVerdict AdmissionController::Admit(
    ClientOp op, const std::string& id,
    std::chrono::steady_clock::time_point enqueued) {
  const auto now = FaultRegistry::Global().Now();
  AdmissionVerdict verdict;

  // 1. Queue deadline: work that waited too long is stale — the client has
  // timed out or resent it; executing it only digs the backlog deeper.
  if (options_.queue_deadline_ms > 0.0) {
    const double waited_ms = MsBetween(enqueued, now);
    if (waited_ms > options_.queue_deadline_ms) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.deadline_shed;
      verdict.status = Status::Unavailable(
          "queue deadline exceeded; re-sync with op=next");
      verdict.code = error_code::kOverloaded;
      verdict.retry_after_ms = options_.retry_after_ms;
      return verdict;
    }
  }

  // 2. Per-client token bucket — last, so shed ops cost no tokens.
  // `close` is exempt: throttling the op that releases resources would
  // only keep them held longer.
  if (options_.rate_limit_per_sec > 0.0 && !id.empty() &&
      op != ClientOp::kClose) {
    std::lock_guard<std::mutex> lock(mu_);
    int retry_after_ms = 0;
    if (!SpendTokenLocked(id, now, &retry_after_ms)) {
      ++stats_.rate_limited;
      verdict.status = Status::ResourceExhausted("client rate limit");
      verdict.code = error_code::kRateLimited;
      verdict.retry_after_ms = retry_after_ms;
      return verdict;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.admitted;
  return verdict;
}

bool AdmissionController::SpendTokenLocked(
    const std::string& id, std::chrono::steady_clock::time_point now,
    int* retry_after_ms) {
  const double rate = options_.rate_limit_per_sec;
  const double burst = std::max(1.0, options_.rate_burst);
  PruneBucketsLocked(now);
  auto [it, inserted] = buckets_.try_emplace(id);
  Bucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = burst;
    bucket.refilled = now;
  } else {
    const double elapsed_s =
        std::max(0.0, MsBetween(bucket.refilled, now) / 1000.0);
    bucket.tokens = std::min(burst, bucket.tokens + elapsed_s * rate);
    bucket.refilled = now;
  }
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  *retry_after_ms = std::max(
      1, static_cast<int>(std::ceil((1.0 - bucket.tokens) / rate * 1000.0)));
  return false;
}

void AdmissionController::PruneBucketsLocked(
    std::chrono::steady_clock::time_point now) {
  if (buckets_.size() <= kMaxBuckets) return;
  const double rate = options_.rate_limit_per_sec;
  const double burst = std::max(1.0, options_.rate_burst);
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    const double refill = MsBetween(it->second.refilled, now) / 1000.0 * rate;
    const bool idle = it->second.tokens + refill >= burst;
    it = idle ? buckets_.erase(it) : std::next(it);
  }
}

AdmissionStats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace uguide
