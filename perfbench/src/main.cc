// The repository benchmark: one workload per process, one closed-loop
// client on the calling thread, end-to-end metrics with tracing off
// (--trace 0) or per-layer metrics from a traced replay (--trace 1).
//
// Usage: perfbench --workload rca_explain|dashboard_select|monitor_ingest
//                  --seed N --seconds S --trace 0|1
//
// Prints `config key=value` lines (host and workload record), then one
// JSON object as the last stdout line. Exits non-zero when any output
// check failed.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "la/simd.h"
#include "perfbench.h"

namespace explainit::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "rca_explain|dashboard_select|monitor_ingest --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

int AffinityCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0.0)) return Usage();
  void (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "rca_explain") {
    run = RunRcaExplain;
  } else if (options.workload == "dashboard_select") {
    run = RunDashboardSelect;
  } else if (options.workload == "monitor_ingest") {
    run = RunMonitorIngest;
  } else {
    return Usage();
  }

  PrintConfig("workload", options.workload);
  PrintConfig("seed", std::to_string(options.seed));
  PrintConfig("trace", options.trace ? "1" : "0");
  PrintConfig("nproc", std::to_string(std::thread::hardware_concurrency()));
  PrintConfig("affinity_cores", std::to_string(AffinityCores()));
  PrintConfig("simd_isa", la::simd::IsaName(la::simd::ActiveIsa()));
  Report report;
  run(options, &report);
  std::fflush(stderr);
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace explainit::perfbench

int main(int argc, char** argv) {
  return explainit::perfbench::Main(argc, argv);
}
