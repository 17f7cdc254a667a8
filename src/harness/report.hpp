// Rendering: ASCII bar charts of figures, and measured-vs-paper tables.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/benchmark.hpp"
#include "harness/figures.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"

namespace dsps::harness {

/// Horizontal ASCII bar chart, one row per figure entry.
std::string render_figure(const Figure& figure);

/// Side-by-side measured vs paper values with the ratio of each column's
/// value to the column minimum, so orderings/shapes compare directly even
/// though absolute times differ by construction.
std::string render_comparison(const Figure& measured,
                              const std::map<std::string, double>& paper,
                              const std::string& paper_caption);

/// Raw per-run measurements as CSV
/// (engine,sdk,query,parallelism,run,execution_seconds,output_records)
/// for plotting outside this repo.
std::string to_csv(const MeasurementSet& set);

/// Human-readable recovery block for chaos runs: per-engine restarts,
/// replayed records, and recovery wall-time, plus the substrate counters
/// (supervised task restarts, injected faults).
/// Empty string when the snapshot records no recovery or fault activity.
std::string render_recovery_summary(const runtime::MetricsSnapshot& snapshot);

/// One measured point of the scale-out sweep (bench/dataplane scaling).
struct ScalingPoint {
  std::string setup;   // "Flink", "Flink Beam", ...
  std::string query;   // "Identity", ...
  int parallelism = 1;
  double records_per_sec = 0.0;
  /// throughput(P) / throughput(1) for the same setup+query.
  double speedup = 0.0;
  /// Scaling efficiency: throughput(P) / (P * throughput(1)).
  double efficiency = 0.0;
  /// Beam rows only: execution_time(Beam) / execution_time(native) at the
  /// same engine, query and parallelism (the paper's slowdown factor,
  /// tracked per P). 0 when not applicable.
  double slowdown = 0.0;
};

/// Scaling-efficiency table, one block per setup+query, one row per P.
std::string render_scaling_table(const std::vector<ScalingPoint>& points);

/// Per-partition data-plane gauges: consumer lag (kafka.consumer.lag.*) and
/// channel queue depths (*.channel.*.depth/.peak_depth). Empty string when
/// the snapshot has neither.
std::string render_partition_gauges(const runtime::MetricsSnapshot& snapshot);

/// Per-setup cost breakdown from the profiler: one row per setup with its
/// attributed and busy time and one column per stage (share of attributed
/// time), plus the heaviest instrumented operators. Empty string when no
/// setup attributed any time (the profiler was disarmed).
std::string render_profile_breakdown(
    const std::vector<std::pair<std::string, runtime::ProfileSnapshot>>&
        per_setup);

/// Serde-layer activity per setup from the runtime.serde.* counters: records
/// and bytes encoded/decoded. Rendered alongside the profile breakdown.
/// Empty string when no setup did any serde work.
std::string render_serde_table(
    const std::vector<std::pair<std::string, SerdeStats>>& per_setup);

}  // namespace dsps::harness
