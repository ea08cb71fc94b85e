#ifndef UGUIDE_TOOLS_FLAG_PARSE_H_
#define UGUIDE_TOOLS_FLAG_PARSE_H_

// Strict flag-value parsers shared by the command-line tools. A value that
// does not parse, or lies outside its range, is a usage error reported as
// one line on stderr — never a silent default (atoi's "--threads=two" -> 0
// once meant "all cores"; strtod's "nan" once passed every range check).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace uguide {

class FlagParser {
 public:
  /// `tool` prefixes every diagnostic ("uguided: invalid value ...").
  explicit FlagParser(const char* tool) : tool_(tool) {}

  /// Largest finite double: the upper bound of an unbounded range.
  static constexpr double kMax = std::numeric_limits<double>::max();

  /// Splits "--flag=value" at the first '='; a bare "--flag" has an empty
  /// value.
  static std::pair<std::string, std::string> Split(std::string_view arg) {
    const size_t eq = arg.find('=');
    if (eq == std::string_view::npos) return {std::string(arg), ""};
    return {std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1))};
  }

  /// Prints "<tool>: invalid value '<value>' for <flag> (expected <want>)"
  /// and returns false, so callers can `return flags.Error(...)`.
  bool Error(const char* flag, std::string_view value, const char* want) const {
    std::fprintf(stderr, "%s: invalid value '%.*s' for %s (expected %s)\n",
                 tool_, static_cast<int>(value.size()), value.data(), flag,
                 want);
    return false;
  }

  /// Decimal digits only, at least `min_value`, at most INT_MAX.
  bool Int(const char* flag, std::string_view value, int min_value,
           int* out) const {
    if (value.empty()) return Error(flag, value, "an integer");
    long long parsed = 0;
    for (char c : value) {
      if (c < '0' || c > '9') return Error(flag, value, "an integer");
      parsed = parsed * 10 + (c - '0');
      if (parsed > std::numeric_limits<int>::max()) {
        return Error(flag, value, "an integer in range");
      }
    }
    if (parsed < min_value) return Error(flag, value, "a larger integer");
    *out = static_cast<int>(parsed);
    return true;
  }

  /// Decimal digits only, at most UINT64_MAX.
  bool U64(const char* flag, std::string_view value, uint64_t* out) const {
    if (value.empty()) return Error(flag, value, "an unsigned integer");
    uint64_t parsed = 0;
    for (char c : value) {
      if (c < '0' || c > '9') {
        return Error(flag, value, "an unsigned integer");
      }
      const uint64_t digit = static_cast<uint64_t>(c - '0');
      if (parsed > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
        return Error(flag, value, "an unsigned 64-bit integer");
      }
      parsed = parsed * 10 + digit;
    }
    *out = parsed;
    return true;
  }

  /// A whole-string strtod parse that is finite and within [lo, hi].
  bool Double(const char* flag, std::string_view value, double lo, double hi,
              double* out) const {
    if (value.empty()) return Error(flag, value, "a number");
    const std::string copy(value);
    char* end = nullptr;
    const double parsed = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size() || !std::isfinite(parsed) ||
        !(parsed >= lo && parsed <= hi)) {
      return Error(flag, value, "a finite number in range");
    }
    *out = parsed;
    return true;
  }

 private:
  const char* tool_;
};

}  // namespace uguide

#endif  // UGUIDE_TOOLS_FLAG_PARSE_H_
