// Figure assembly: turns setup measurements into the rows of the paper's
// figures, including the slowdown-factor formula of §III-C3.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness/benchmark.hpp"

namespace dsps::harness {

/// The 12 setups of one execution-time figure (Figs. 6-9), in the paper's
/// y-axis order: Apex Beam P1/P2, Apex P1/P2, Flink Beam ..., Spark P2.
std::vector<SetupKey> figure_setups(workload::QueryId query);

/// All 48 setups (4 queries x 12) for Figs. 10/11.
std::vector<SetupKey> full_matrix();

struct FigureRow {
  std::string label;
  double value = 0.0;
};

struct Figure {
  std::string title;
  std::string value_axis;
  std::vector<FigureRow> rows;
};

/// Keyed measurement store shared by the figure builders.
class MeasurementSet {
 public:
  void add(const SetupMeasurements& measurements);
  bool contains(const SetupKey& key) const;
  const SetupMeasurements& get(const SetupKey& key) const;
  const std::map<std::string, SetupMeasurements>& all() const {
    return by_label_;
  }

 private:
  std::map<std::string, SetupMeasurements> by_label_;
};

/// Figs. 6-9: average execution time per setup for one query.
Figure execution_time_figure(const MeasurementSet& set,
                             workload::QueryId query);

/// Fig. 10: relative stddev per system-query-SDK, averaged over the two
/// parallelism factors ("Deviations for the two parallelism factors are
/// averaged and condensed in this way", §III-C2).
Figure stddev_figure(const MeasurementSet& set);

/// The paper's slowdown factor:
///   sf(dsps, query) = (1/Np) * sum_p  t̄_beam(p) / t̄_native(p)
double slowdown_factor(const MeasurementSet& set, queries::Engine engine,
                       workload::QueryId query);

/// Fig. 11: slowdown factor per (engine, query).
Figure slowdown_figure(const MeasurementSet& set);

/// How close measured slowdown factors land to the paper's, scored over the
/// rows of `measured` that `paper` has a value for. A measured factor of 0
/// has no resolvable native denominator; it is listed, not scored.
struct FidelityScore {
  /// Mean |ln(measured / paper)| over the resolved factors.
  double mean_abs_log_ratio = 0.0;
  int resolved = 0;
  /// Resolved factors within 35% of the paper's value.
  int within_35pct = 0;
  std::vector<std::string> unresolved;
};
FidelityScore fidelity_score(const Figure& measured,
                             const std::map<std::string, double>& paper);

/// "Apex Beam Grep" style label used by Fig. 10.
std::string system_query_sdk_label(queries::Engine engine, queries::Sdk sdk,
                                   workload::QueryId query);

}  // namespace dsps::harness
