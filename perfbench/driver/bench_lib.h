#ifndef PERFBENCH_DRIVER_BENCH_LIB_H_
#define PERFBENCH_DRIVER_BENCH_LIB_H_

// Helpers shared by the benchmark's workloads: percentile selection, span
// recording and self-time attribution, report checks against same-run and
// pinned references, process probes, and the result printer. None of this
// reaches into the library under test; the workloads time calls into its
// public functions from outside.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `from` to `to`.
double MsBetween(Clock::time_point from, Clock::time_point to);

// ---------------------------------------------------------------------------
// Percentiles

/// Samples a percentile needs strictly beyond it before it is reported.
inline constexpr size_t kMinTailSamples = 10;

/// Number of samples ranked beyond the `p`-th percentile of `n` samples
/// under the nearest-rank definition used by Percentile().
size_t SamplesBeyond(size_t n, double p);

/// True iff the `p`-th percentile of `n` samples has at least
/// kMinTailSamples samples beyond it.
bool PercentileSupported(size_t n, double p);

/// The highest of `candidates` (percentiles in (0, 100)) that `n` samples
/// support, or a negative value when none is supported.
double HighestSupportedPercentile(size_t n,
                                  const std::vector<double>& candidates);

/// Nearest-rank percentile of `values` (unsorted; copied). `p` in [0, 100].
/// Returns 0 for an empty input.
double Percentile(std::vector<double> values, double p);

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a layer, recorded by the benchmark around a public
/// function of the system under test.
struct Span {
  std::string name;   ///< "<layer>.<what>", e.g. "violations.graph_build".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;    ///< Index of the enclosing span; -1 for a root.
  int64_t session = -1;
};

/// In-memory span log. Disabled tracers record nothing and cost one branch
/// per call. Not thread-safe: every workload records from one thread.
class Tracer {
 public:
  explicit Tracer(bool enabled = false);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(std::string_view name, int parent, int64_t session);
  /// Closes span `index` (ignored when -1).
  void End(int index);

  /// Appends a span already timed by the caller.
  int Record(std::string_view name, Clock::time_point start,
             Clock::time_point end, int parent, int64_t session);

  std::vector<Span> spans() const;

  /// Writes one JSON object per span to `path`. Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const;

  const bool enabled_;
  const Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII wrapper over Tracer::Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, int parent = -1,
             int64_t session = -1)
      : tracer_(tracer), index_(tracer.Begin(name, parent, session)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer& tracer_;
  const int index_;
};

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once, and child
/// time outside the parent's interval is ignored). Indexed like `spans`.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Self time summed per layer, where a span's layer is its name up to the
/// first '.'. Root spans (parent -1) are the benchmark's own frames; their
/// self time is the time no layer covers and is summed under
/// "unattributed".
std::map<std::string, double> LayerSelfTimesMs(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Output checks

/// Offset of the first byte where `actual` differs from `expected`
/// (including a length difference), or -1 when they are identical.
int64_t FirstMismatch(std::string_view expected, std::string_view actual);

/// 64-bit FNV-1a digest of `bytes`; pins an expected report in a file.
uint64_t ReportDigest(std::string_view bytes);

/// The digest as 16 lowercase hex digits.
std::string DigestHex(uint64_t digest);

/// Reads the digests pinned for `workload` from `path`: one
/// "<workload> <key> <16 hex digits>" line per expected report, '#' starts
/// a comment. Returns false (with `error` set) when the file cannot be read
/// or a line does not parse.
bool LoadPinnedDigests(const std::string& path, const std::string& workload,
                       std::map<std::string, uint64_t>* pinned,
                       std::string* error);

/// One session's output to check. `key` names its expected report (the
/// strategy); a non-empty `error` means the session failed before it
/// produced a report.
struct ReportToCheck {
  std::string label;  ///< Names the session in failure messages.
  std::string key;
  std::string report;
  std::string error;
};

class RunResult;

/// Checks every session's report twice: byte for byte against `reference`,
/// the bytes the library produced in the same run, and by digest against
/// `pinned`, the digests checked into the benchmark, so that a change to
/// what the library computes fails even though both sides move together. A
/// session fails on an error, a missing reference or pin, or either
/// mismatch. Each session adds one attempted op to `result`, and each
/// failing one a failed op and a Fail() message. Returns the failures.
int64_t CheckReports(const std::vector<ReportToCheck>& sessions,
                     const std::map<std::string, std::string>& reference,
                     const std::map<std::string, uint64_t>& pinned,
                     RunResult* result);

/// Writes "<workload> <key> <digest>" per reference report to `path`, the
/// lines LoadPinnedDigests reads. Returns false on I/O error.
bool WriteDigests(const std::string& path, const std::string& workload,
                  const std::map<std::string, std::string>& reference);

// ---------------------------------------------------------------------------
// Process probes (Linux /proc)

/// User + system CPU time of process `pid` (all its threads), in ms.
double ProcessCpuMs(int pid);
/// Peak resident set size (VmHWM) of process `pid`, in MiB.
double ProcessPeakRssMb(int pid);
/// Sum of the sizes of the regular files directly inside `dir`.
int64_t DirectoryBytes(const std::string& dir);

// ---------------------------------------------------------------------------
// Result

/// One named metric with its unit; printed in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result: outcome counts plus metrics. Print() writes a
/// human-readable table (with sample counts and notes) followed by the
/// single JSON line the harness reads.
class RunResult {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A free-form line printed in the table (sample counts, context).
  void Note(const std::string& line);

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  /// Why `correct` is false, printed to stderr.
  std::vector<std::string> problems;

  void Fail(const std::string& problem);
  /// Marks the whole run invalid: it measured the benchmark, not the
  /// system, and must not be reported.
  void Invalidate(const std::string& problem);
  bool valid = true;

  std::string ToJson() const;
  void Print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_LIB_H_
