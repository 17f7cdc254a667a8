// The benchmark: workloads, the measurement loop, and the metrics it
// reports. See perfbench/README.md for what each workload and metric is for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans; empty: not written.
  std::string spans_path;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Outcome {
  bool correct = false;
  std::int64_t attempted = 0;  // setup runs
  std::int64_t failed = 0;     // setup runs that failed (error or oracle)
  std::vector<MetricValue> metrics;
  /// Human-readable detail printed before the result line.
  std::vector<std::string> report;
};

std::vector<std::string> workload_names();

/// Every metric a run reports, in print order: end-to-end metrics for an
/// untraced run, per-layer metrics for a traced one.
std::vector<MetricSpec> end_to_end_specs();
std::vector<MetricSpec> per_layer_specs();

dsps::Result<Outcome> run_benchmark(const Options& options);

}  // namespace perfbench
