#include "driver/bench_lib.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------------------
// Percentiles

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps exact products (e.g. 0.9 * 100) from rounding up a
  // rank through floating-point error.
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinTailSamples;
}

double HighestSupportedPercentile(size_t n,
                                  const std::vector<double>& candidates) {
  double best = -1.0;
  for (double p : candidates) {
    if (p > best && PercentileSupported(n, p)) best = p;
  }
  return best;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

// ---------------------------------------------------------------------------
// Spans

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(std::string_view name, int parent, int64_t session) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  spans_.push_back(Span{std::string(name), now, now, parent, session});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int Tracer::Record(std::string_view name, Clock::time_point start,
                   Clock::time_point end, int parent, int64_t session) {
  if (!enabled_) return -1;
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  Span span{std::string(name), duration_cast<nanoseconds>(start - origin_).count(),
            duration_cast<nanoseconds>(end - origin_).count(), parent, session};
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const { return spans_; }

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"session\":" << s.session << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = std::max(lo, spans[i].end_ns);
    // Union of the children's intervals clipped to [lo, hi].
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t c : children[i]) {
      const int64_t a = std::max(lo, spans[c].start_ns);
      const int64_t b = std::min(hi, spans[c].end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    self[i] = static_cast<double>(hi - lo - covered) / 1e6;
  }
  return self;
}

std::map<std::string, double> LayerSelfTimesMs(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string layer =
        spans[i].parent < 0 ? "unattributed"
                            : spans[i].name.substr(0, spans[i].name.find('.'));
    layers[layer] += self[i];
  }
  return layers;
}

// ---------------------------------------------------------------------------
// Output checks

int64_t FirstMismatch(std::string_view expected, std::string_view actual) {
  const size_t common = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < common; ++i) {
    if (expected[i] != actual[i]) return static_cast<int64_t>(i);
  }
  if (expected.size() != actual.size()) return static_cast<int64_t>(common);
  return -1;
}

uint64_t ReportDigest(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string DigestHex(uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return hex;
}

bool LoadPinnedDigests(const std::string& path, const std::string& workload,
                       std::map<std::string, uint64_t>* pinned,
                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    line = line.substr(0, line.find('#'));
    std::istringstream fields(line);
    std::string name, key, hex, extra;
    if (!(fields >> name)) continue;  // blank or comment
    if (!(fields >> key >> hex) || fields >> extra || hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      *error = path + ":" + std::to_string(number) + ": bad line";
      return false;
    }
    if (name == workload) (*pinned)[key] = std::stoull(hex, nullptr, 16);
  }
  return true;
}

int64_t CheckReports(const std::vector<ReportToCheck>& sessions,
                     const std::map<std::string, std::string>& reference,
                     const std::map<std::string, uint64_t>& pinned,
                     RunResult* result) {
  int64_t bad = 0;
  for (const ReportToCheck& s : sessions) {
    ++result->attempted;
    std::string problem;
    const auto expected = reference.find(s.key);
    const auto pin = pinned.find(s.key);
    if (!s.error.empty()) {
      problem = s.error;
    } else if (expected == reference.end() || expected->second.empty()) {
      problem = "no reference report";
    } else if (const int64_t at = FirstMismatch(expected->second, s.report);
               at >= 0) {
      problem = "report differs from the reference at byte " +
                std::to_string(at);
    } else if (pin == pinned.end()) {
      problem = "no pinned digest";
    } else if (ReportDigest(s.report) != pin->second) {
      problem = "report digest " + DigestHex(ReportDigest(s.report)) +
                " differs from the pinned " + DigestHex(pin->second);
    }
    if (!problem.empty()) {
      ++bad;
      result->Fail(s.label + ": " + problem);
    }
  }
  result->failed += bad;
  return bad;
}

bool WriteDigests(const std::string& path, const std::string& workload,
                  const std::map<std::string, std::string>& reference) {
  std::ofstream out(path);
  for (const auto& [key, report] : reference) {
    out << workload << ' ' << key << ' ' << DigestHex(ReportDigest(report))
        << '\n';
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Process probes

double ProcessCpuMs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* entry = ::readdir(d)) {
    struct stat st;
    const std::string path = dir + "/" + entry->d_name;
    if (::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += st.st_size;
    }
  }
  ::closedir(d);
  return total;
}

// ---------------------------------------------------------------------------
// Result

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void RunResult::Note(const std::string& line) { notes_.push_back(line); }

void RunResult::Fail(const std::string& problem) {
  correct = false;
  problems.push_back(problem);
}

void RunResult::Invalidate(const std::string& problem) {
  valid = false;
  problems.push_back(problem);
}

std::string RunResult::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void RunResult::Print() const {
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", problem.c_str());
  }
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const Metric& m : metrics_) {
    std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ToJson().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
