#include "harness/figures.hpp"

#include <cmath>

#include "common/stats.hpp"

namespace dsps::harness {

using queries::Engine;
using queries::Sdk;
using workload::QueryId;

namespace {

constexpr Engine kEngines[] = {Engine::kApex, Engine::kFlink, Engine::kSpark};
constexpr Sdk kSdks[] = {Sdk::kBeam, Sdk::kNative};
constexpr QueryId kQueries[] = {QueryId::kIdentity, QueryId::kSample,
                                QueryId::kProjection, QueryId::kGrep};
constexpr int kParallelisms[] = {1, 2};

double mean_execution_time(const MeasurementSet& set, const SetupKey& key) {
  if (!set.contains(key)) return 0.0;
  return mean(set.get(key).execution_times());
}

}  // namespace

std::vector<SetupKey> figure_setups(QueryId query) {
  std::vector<SetupKey> setups;
  for (const Engine engine : kEngines) {
    for (const Sdk sdk : kSdks) {
      for (const int parallelism : kParallelisms) {
        setups.push_back(SetupKey{engine, sdk, query, parallelism});
      }
    }
  }
  return setups;
}

std::vector<SetupKey> full_matrix() {
  std::vector<SetupKey> setups;
  for (const QueryId query : kQueries) {
    const auto per_query = figure_setups(query);
    setups.insert(setups.end(), per_query.begin(), per_query.end());
  }
  return setups;
}

void MeasurementSet::add(const SetupMeasurements& measurements) {
  by_label_[setup_label(measurements.key) + "/" +
            workload::query_info(measurements.key.query).name] = measurements;
}

bool MeasurementSet::contains(const SetupKey& key) const {
  return by_label_.contains(setup_label(key) + "/" +
                            workload::query_info(key.query).name);
}

const SetupMeasurements& MeasurementSet::get(const SetupKey& key) const {
  return by_label_.at(setup_label(key) + "/" +
                      workload::query_info(key.query).name);
}

Figure execution_time_figure(const MeasurementSet& set, QueryId query) {
  Figure figure;
  figure.title = "Average Execution Times - " +
                 workload::query_info(query).name + " Query";
  figure.value_axis = "Average Execution Time in s";
  for (const SetupKey& key : figure_setups(query)) {
    figure.rows.push_back(
        FigureRow{setup_label(key), mean_execution_time(set, key)});
  }
  return figure;
}

std::string system_query_sdk_label(Engine engine, Sdk sdk, QueryId query) {
  std::string label = queries::engine_name(engine);
  if (sdk == Sdk::kBeam) label += " Beam";
  label += " " + workload::query_info(query).name;
  return label;
}

Figure stddev_figure(const MeasurementSet& set) {
  Figure figure;
  figure.title = "Relative Standard Deviation for System-Query-SDK "
                 "Combinations";
  figure.value_axis = "Relative Standard Deviation";
  for (const Engine engine : kEngines) {
    for (const Sdk sdk : kSdks) {
      for (const QueryId query : kQueries) {
        double sum = 0.0;
        int count = 0;
        for (const int parallelism : kParallelisms) {
          const SetupKey key{engine, sdk, query, parallelism};
          if (!set.contains(key)) continue;
          sum += relative_stddev(set.get(key).execution_times());
          ++count;
        }
        if (count == 0) continue;
        figure.rows.push_back(
            FigureRow{system_query_sdk_label(engine, sdk, query),
                      sum / static_cast<double>(count)});
      }
    }
  }
  return figure;
}

double slowdown_factor(const MeasurementSet& set, Engine engine,
                       QueryId query) {
  double sum = 0.0;
  int parallelisms = 0;
  for (const int parallelism : kParallelisms) {
    const SetupKey beam{engine, Sdk::kBeam, query, parallelism};
    const SetupKey native{engine, Sdk::kNative, query, parallelism};
    const double native_mean = mean_execution_time(set, native);
    if (native_mean <= 0.0) continue;
    sum += mean_execution_time(set, beam) / native_mean;
    ++parallelisms;
  }
  return parallelisms == 0 ? 0.0 : sum / static_cast<double>(parallelisms);
}

Figure slowdown_figure(const MeasurementSet& set) {
  Figure figure;
  figure.title = "Slowdown Factor for the Analyzed Systems and Queries";
  figure.value_axis = "Slowdown Factor sf(dsps, query)";
  for (const Engine engine : kEngines) {
    for (const QueryId query : kQueries) {
      figure.rows.push_back(
          FigureRow{std::string(queries::engine_name(engine)) + " " +
                        workload::query_info(query).name,
                    slowdown_factor(set, engine, query)});
    }
  }
  return figure;
}

FidelityScore fidelity_score(const Figure& measured,
                             const std::map<std::string, double>& paper) {
  FidelityScore score;
  double sum = 0.0;
  for (const FigureRow& row : measured.rows) {
    const auto published = paper.find(row.label);
    if (published == paper.end() || published->second <= 0.0) continue;
    if (row.value <= 0.0) {
      score.unresolved.push_back(row.label);
      continue;
    }
    const double ratio = row.value / published->second;
    sum += std::abs(std::log(ratio));
    ++score.resolved;
    if (std::abs(ratio - 1.0) <= 0.35) ++score.within_35pct;
  }
  if (score.resolved > 0) {
    score.mean_abs_log_ratio = sum / static_cast<double>(score.resolved);
  }
  return score;
}

}  // namespace dsps::harness
