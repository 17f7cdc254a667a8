// perfbench: the repository's benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//   perfbench --list-metrics
//
// Prints a human-readable report, then one table row per metric, then, as
// the last line, one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

void list_metrics() {
  for (const std::string& name : perfbench::workload_names()) {
    std::printf("workload %s\n", name.c_str());
  }
  for (const auto& spec : perfbench::end_to_end_specs()) {
    std::printf("end_to_end %s %s\n", spec.name.c_str(), spec.unit.c_str());
  }
  for (const auto& spec : perfbench::per_layer_specs()) {
    std::printf("per_layer %s %s\n", spec.name.c_str(), spec.unit.c_str());
  }
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_number(value, number) && number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && parse_number(value, number) &&
               number > 0 && number <= 600) {
      options.seconds = number;
    } else if (flag == "--trace" &&
               (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
      options.trace = value[0] == '1';
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed) return usage();

  try {
    auto outcome = perfbench::run_benchmark(options);
    if (!outcome.is_ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   outcome.status().to_string().c_str());
      return 1;
    }
    const perfbench::Outcome& result = outcome.value();
    for (const std::string& line : result.report) {
      std::printf("%s\n", line.c_str());
    }
    for (const auto& metric : result.metrics) {
      std::printf("%-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const auto& metric = result.metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metric.name.c_str(),
                  std::isfinite(metric.value) ? metric.value : 0.0,
                  metric.unit.c_str());
    }
    std::printf("}}\n");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
