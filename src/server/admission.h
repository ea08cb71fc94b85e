#ifndef UGUIDE_SERVER_ADMISSION_H_
#define UGUIDE_SERVER_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "server/protocol.h"

namespace uguide {

/// Knobs of the AdmissionController. All limits default to off so a
/// manager embedded in tests behaves exactly as before PR 7 unless a knob
/// is turned.
struct AdmissionOptions {
  /// Token-bucket refill rate per client id, in ops/second; ops beyond the
  /// bucket are refused with `rate_limited` + retry_after_ms. 0 = off.
  double rate_limit_per_sec = 0.0;
  /// Bucket capacity: the burst a quiet client may spend at once.
  double rate_burst = 8.0;
  /// Steps that waited in the reactor queue longer than this are shed
  /// before execution with `overloaded` + retry_after_ms (the work they
  /// would do is stale: the client has likely timed out or resent). 0 =
  /// off.
  double queue_deadline_ms = 0.0;
  /// The retry hint attached to overload refusals (session limit, queue
  /// deadline); rate-limit refusals compute their own from the bucket
  /// deficit.
  int retry_after_ms = 200;
};

/// The outcome of one admission check. When refused, `code` is the
/// machine-readable error slug and `retry_after_ms` the hint both destined
/// for the error frame.
struct AdmissionVerdict {
  Status status;  ///< OK = admitted.
  std::string code;
  int retry_after_ms = -1;

  bool admitted() const { return status.ok(); }
};

struct AdmissionStats {
  int64_t admitted = 0;
  int64_t rate_limited = 0;
  int64_t deadline_shed = 0;
};

/// \brief The overload gate in front of every SessionManager step.
///
/// Consulted by SessionManager::HandleLine before an op touches a session:
/// first the queue deadline (stale work is shed, not executed), then the
/// per-client token bucket, so a shed op never consumes rate-limit
/// tokens.
///
/// Every clock read is FaultRegistry::Global().Now(), so latency fault
/// plans drive deadline and refill arithmetic deterministically in tests.
///
/// Thread safety: all methods are safe to call concurrently.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Checks one op for client `id`, framed by the reactor at `enqueued`.
  AdmissionVerdict Admit(ClientOp op, const std::string& id,
                         std::chrono::steady_clock::time_point enqueued);

  AdmissionStats stats() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point refilled;
  };

  /// Refills and spends one token for `id`; on failure returns the ms
  /// until a token is available. Caller holds mu_.
  bool SpendTokenLocked(const std::string& id,
                        std::chrono::steady_clock::time_point now,
                        int* retry_after_ms);
  /// Drops buckets that have refilled to full (idle clients) once the map
  /// grows past the cap — a hostile client inventing ids must not grow
  /// controller memory without bound. Caller holds mu_.
  void PruneBucketsLocked(std::chrono::steady_clock::time_point now);

  const AdmissionOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Bucket> buckets_;
  AdmissionStats stats_;
};

}  // namespace uguide

#endif  // UGUIDE_SERVER_ADMISSION_H_
