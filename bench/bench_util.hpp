// Shared helpers for the harness benches (the figure reproductions and
// bench/dataplane): runs the requested setups through the BenchmarkHarness,
// prints progress, and renders a figure next to the paper's published
// numbers.
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

/// Runs and prints one execution-time figure (Figs. 6-9 analogues).
inline int run_execution_time_figure(workload::QueryId query,
                                     const char* paper_figure) {
  const auto config = config_from_env();
  std::printf("=== %s (reproduction of the paper's %s) ===\n",
              ("Average Execution Times - " +
               workload::query_info(query).name + " Query")
                  .c_str(),
              paper_figure);
  print_scale(config);

  harness::BenchmarkHarness harness(config);
  const auto set = run_setups(harness, harness::figure_setups(query));
  const auto figure = harness::execution_time_figure(set, query);
  std::printf("%s\n", harness::render_figure(figure).c_str());
  std::printf("%s\n",
              harness::render_comparison(
                  figure, harness::paper::execution_times(query),
                  std::string(paper_figure) +
                      " (absolute seconds differ by construction — compare "
                      "the x-min ratio columns)")
                  .c_str());
  // STREAMSHIM_PROFILE=1: where the microseconds of each setup went.
  const std::string breakdown =
      harness::render_profile_breakdown(setup_profiles(set));
  if (!breakdown.empty()) std::printf("%s\n", breakdown.c_str());
  const std::string serde = harness::render_serde_table(setup_serde(set));
  if (!serde.empty()) std::printf("%s\n", serde.c_str());
  return 0;
}

}  // namespace dsps::bench
