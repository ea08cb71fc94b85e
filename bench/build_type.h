#ifndef UGUIDE_BENCH_BUILD_TYPE_H_
#define UGUIDE_BENCH_BUILD_TYPE_H_

// This binary's own build mode. Every bench stamps it into its JSON as
// context.uguide_build_type, and tools/check_bench.py refuses to compare
// two runs whose build types differ (a Debug run with a Release baseline).
#ifdef NDEBUG
inline constexpr char kUguideBuildType[] = "release";
#else
inline constexpr char kUguideBuildType[] = "debug";
#endif

#endif  // UGUIDE_BENCH_BUILD_TYPE_H_
