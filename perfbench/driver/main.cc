// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver <offline-tax|serve-mix> --seed=N --seconds=S
//                    --trace=0|1 --out-dir=DIR --pinned=FILE [--uguided=PATH]
//
// Normally started by run.py, which builds this binary and the daemon. The
// last line of standard output is the result JSON. Exit status 0 means a
// result was printed (its "correct" field says whether every output
// matched its reference); exit status 3 means the run was invalid (for
// example, the daemon did not boot, or too few answers support a reported
// percentile) and no result is reported; 2 is a usage error.

#include <sched.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver/workloads.h"

namespace {

/// Pins the driver, and with it every thread and daemon it starts, to the
/// last CPU it may use. A served answer crosses three threads (client,
/// reactor, worker); on one CPU the hand-offs need no cross-CPU wake-ups,
/// whose latency followed the host's load on the VM the benchmark was
/// tuned on (serve-mix sessions_per_s 14.7-17.7 unpinned against 18.4-19.4
/// pinned, interleaved runs at equal CPU per session). The in-process
/// offline workload runs on one thread and is left to the scheduler.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  if (argc < 2) return false;
  options->workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string flag = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--uguided") {
      options->uguided = value;
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else if (flag == "--pinned") {
      options->pinned = value;
    } else {
      return false;
    }
  }
  return options->seconds > 0 && !options->out_dir.empty() &&
         !options->pinned.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver <offline-tax|serve-mix> --seed=N"
                 " --seconds=S --trace=0|1 --out-dir=DIR --pinned=FILE"
                 " [--uguided=PATH]\n");
    return 2;
  }
  perfbench::RunResult result;
  if (options.workload == "offline-tax") {
    perfbench::RunOfflineTax(options, &result);
  } else if (options.workload == "serve-mix") {
    if (options.uguided.empty()) {
      std::fprintf(stderr, "perfbench_driver: --uguided is required\n");
      return 2;
    }
    PinToOneCpu();
    perfbench::RunServeMix(options, &result);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  if (!result.valid) {
    for (const std::string& problem : result.problems) {
      std::fprintf(stderr, "perfbench_driver: invalid run: %s\n",
                   problem.c_str());
    }
    return 3;
  }
  result.Print();
  return 0;
}
