// perfbench: one run of one workload, one JSON result line.
//
//   perfbench --workload table2|sweep --seed N --seconds S --trace 0|1
//             --serve-rate R [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (METRICS.md lists both). --serve-rate is the arrival rate of the serve
// episode that the traced sweep run drives. The last stdout line is
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// and the exit code is nonzero when any output was wrong.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "metrics.hpp"

namespace {

/// Why this build's numbers must not be published, or empty.
std::string refusal() {
#if !defined(NDEBUG)
  return "assertions are enabled (not an optimized build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type '" + type + "'";
  return {};
#endif
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table2|sweep "
               "--seed N --seconds S --trace 0|1 --serve-rate R "
               "[--out-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--serve-rate") {
        options.serve_rate = std::stod(value);
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!have_workload) return usage("--workload is required");
  if (options.seconds <= 0 || options.serve_rate <= 0)
    return usage("--seconds and --serve-rate must be given and > 0");
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to publish numbers: %s\n",
                 why.c_str());
    return 3;
  }

  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload != "table2" && options.workload != "sweep")
      return usage(("unknown workload " + options.workload).c_str());
    const perfbench::RunResult result =
        perfbench::run_campaign_workload(options);
    const perfbench::MetricSet metrics =
        perfbench::complete_metrics(result.metrics, options.trace);
    std::cout << perfbench::result_line(result.correct,
                                        std::max<std::uint64_t>(
                                            result.attempted, 1),
                                        result.failed, metrics)
              << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
