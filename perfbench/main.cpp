// perfbench: the repository benchmark's binary (run.py builds it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--doctor config|cache]
//
// Workloads: optimal-direct, baseline-batched, sublinear-trees, serve-mix.
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run.  The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}; the
// lines above it are a human-readable summary.  Exit status: 0 when every
// correctness check passed, 1 when one failed, 2 on a usage error.
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "obs/json.hpp"
#include "util/request_spec.hpp"

namespace {

constexpr std::string_view k_workloads[] = {
    "optimal-direct", "baseline-batched", "sublinear-trees", "serve-mix"};

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>] "
               "[--doctor config|cache]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed" || flag == "--seconds" || flag == "--trace") {
      const auto number = ssr::util::parse_u64(value);
      if (!number.has_value()) {
        return usage("bad value for " + std::string(flag));
      }
      if (flag == "--seed") config.seed = *number;
      if (flag == "--seconds") config.seconds = static_cast<double>(*number);
      if (flag == "--trace") config.trace = *number != 0;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else if (flag == "--doctor") {
      config.doctor = value;
    } else {
      return usage("unknown flag " + std::string(flag));
    }
  }
  bool known = false;
  for (const std::string_view w : k_workloads) {
    known = known || w == config.workload;
  }
  if (!have_workload || !known) {
    return usage("--workload must be one of " +
                 ssr::util::unknown_name_message("workload", config.workload,
                                                 k_workloads));
  }

  perfbench::run_report report;
  try {
    report = config.workload == "serve-mix"
                 ? perfbench::run_serve_mix(config)
                 : perfbench::run_trial_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s, seed %llu, %s run\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced");
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::printf("  failed_share = %.6g (%llu of %llu)\n",
              report.attempted > 0
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 1.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const auto& [name, m] : report.metrics) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  using ssr::obs::json_value;
  json_value metrics = json_value::object();
  for (const auto& [name, m] : report.metrics) {
    json_value entry = json_value::object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[name] = std::move(entry);
  }
  json_value result = json_value::object();
  result["correct"] = report.correct;
  result["attempted"] = report.attempted;
  result["failed"] = report.failed;
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", result.dump().c_str());
  return report.correct ? 0 : 1;
}
