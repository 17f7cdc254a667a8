// Shared helpers for the harness benches (bench/figures and
// bench/dataplane): scale from the environment, and running the requested
// setups through the BenchmarkHarness with progress on stderr.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/strings.hpp"
#include "harness/benchmark.hpp"
#include "harness/figures.hpp"
#include "harness/paper_data.hpp"
#include "harness/report.hpp"

namespace dsps::bench {

inline harness::HarnessConfig config_from_env() {
  auto config = harness::HarnessConfig::from_env();
  config.broker_rtt_us = env_i64("STREAMSHIM_RTT_US", config.broker_rtt_us);
  return config;
}

inline void print_scale(const harness::HarnessConfig& config) {
  std::printf(
      "scale: %llu records, %d runs/setup, seed %llu, broker RTT %lld us\n"
      "       (STREAMSHIM_RECORDS / STREAMSHIM_RUNS / STREAMSHIM_SEED / "
      "STREAMSHIM_RTT_US / STREAMSHIM_FULL=1 for paper scale)\n\n",
      static_cast<unsigned long long>(config.records), config.runs,
      static_cast<unsigned long long>(config.seed),
      static_cast<long long>(config.broker_rtt_us));
}

/// Per-setup profiler deltas in report-renderer form; rows are all-zero
/// (and the renderer returns "") unless the profiler was armed.
inline std::vector<std::pair<std::string, runtime::ProfileSnapshot>>
setup_profiles(const harness::MeasurementSet& set) {
  std::vector<std::pair<std::string, runtime::ProfileSnapshot>> per_setup;
  for (const auto& [label, measurements] : set.all()) {
    per_setup.emplace_back(label, measurements.profile);
  }
  return per_setup;
}

/// Per-setup serde counter deltas in report-renderer form; rows are
/// all-zero (and the renderer returns "") when no serde work happened.
inline std::vector<std::pair<std::string, harness::SerdeStats>> setup_serde(
    const harness::MeasurementSet& set) {
  std::vector<std::pair<std::string, harness::SerdeStats>> per_setup;
  for (const auto& [label, measurements] : set.all()) {
    per_setup.emplace_back(label, measurements.serde);
  }
  return per_setup;
}

/// Runs every requested setup, reporting progress on stderr.
inline harness::MeasurementSet run_setups(
    harness::BenchmarkHarness& harness,
    const std::vector<harness::SetupKey>& setups) {
  harness::MeasurementSet set;
  for (const auto& key : setups) {
    std::fprintf(stderr, "  running %-14s %-10s ...", setup_label(key).c_str(),
                 workload::query_info(key.query).name.c_str());
    auto measurements = harness.run_setup(key);
    measurements.status().expect_ok();
    std::fprintf(stderr, " mean %.4fs\n",
                 mean(measurements.value().execution_times()));
    set.add(measurements.value());
  }
  return set;
}

}  // namespace dsps::bench
