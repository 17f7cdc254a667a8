#include "harness/report.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"

namespace dsps::harness {

std::string render_figure(const Figure& figure) {
  std::string out = figure.title + "\n";
  std::size_t label_width = 0;
  double max_value = 0.0;
  for (const auto& row : figure.rows) {
    label_width = std::max(label_width, row.label.size());
    max_value = std::max(max_value, row.value);
  }
  constexpr int kBarWidth = 46;
  for (const auto& row : figure.rows) {
    const int bar =
        max_value <= 0.0
            ? 0
            : static_cast<int>(std::lround(row.value / max_value * kBarWidth));
    out += "  " + pad_right(row.label, label_width) + " |" +
           std::string(static_cast<std::size_t>(bar), '#') +
           std::string(static_cast<std::size_t>(kBarWidth - bar), ' ') +
           "| " + format_double(row.value, 4) + "\n";
  }
  out += "  (" + figure.value_axis + ")\n";
  return out;
}

std::string render_comparison(const Figure& measured,
                              const std::map<std::string, double>& paper,
                              const std::string& paper_caption) {
  double min_measured = 0.0;
  double min_paper = 0.0;
  bool first = true;
  for (const auto& row : measured.rows) {
    const auto it = paper.find(row.label);
    if (it == paper.end()) continue;
    if (first || row.value < min_measured) min_measured = row.value;
    if (first || it->second < min_paper) min_paper = it->second;
    first = false;
  }
  if (min_measured <= 0.0) min_measured = 1.0;
  if (min_paper <= 0.0) min_paper = 1.0;

  std::size_t label_width = std::string("setup").size();
  for (const auto& row : measured.rows) {
    label_width = std::max(label_width, row.label.size());
  }

  std::string out = "measured vs " + paper_caption + "\n";
  out += "  " + pad_right("setup", label_width) + "  " +
         pad_left("measured", 12) + pad_left("x-min", 9) +
         pad_left("paper", 12) + pad_left("x-min", 9) + "\n";
  for (const auto& row : measured.rows) {
    const auto it = paper.find(row.label);
    out += "  " + pad_right(row.label, label_width) + "  " +
           pad_left(format_double(row.value, 4), 12) +
           pad_left(format_double(row.value / min_measured, 1), 9);
    if (it != paper.end()) {
      out += pad_left(format_double(it->second, 2), 12) +
             pad_left(format_double(it->second / min_paper, 1), 9);
    } else {
      out += pad_left("-", 12) + pad_left("-", 9);
    }
    out += "\n";
  }
  return out;
}

std::string to_csv(const MeasurementSet& set) {
  std::string out =
      "engine,sdk,query,parallelism,run,execution_seconds,output_records\n";
  for (const auto& [label, measurements] : set.all()) {
    const auto& key = measurements.key;
    for (std::size_t r = 0; r < measurements.runs.size(); ++r) {
      out += std::string(queries::engine_name(key.engine)) + "," +
             queries::sdk_name(key.sdk) + "," +
             workload::query_info(key.query).name + "," +
             std::to_string(key.parallelism) + "," + std::to_string(r + 1) +
             "," + format_double(measurements.runs[r].execution_seconds, 6) +
             "," + std::to_string(measurements.runs[r].output_records) +
             "\n";
    }
  }
  return out;
}

std::string render_recovery_summary(const runtime::MetricsSnapshot& snapshot) {
  struct EngineRow {
    const char* name;
    const char* restarts;  // counter
    const char* replayed;  // counter
    const char* time_ms;   // gauge; nullptr = engine records no wall-time
  };
  // Spark retries inside the driver loop, so its recovery time is folded
  // into batch duration and has no separate gauge.
  constexpr EngineRow kEngines[] = {
      {"Flink", "flink.recovery.restarts", "flink.recovery.replayed_records",
       "flink.recovery.time_ms"},
      {"Spark", "spark.recovery.batch_retries",
       "spark.recovery.replayed_records", nullptr},
      {"Apex", "apex.recovery.restarts", "apex.recovery.replayed_records",
       "apex.recovery.time_ms"},
  };

  const std::uint64_t injected = snapshot.counter("fault.injected");
  const std::uint64_t task_restarts = snapshot.counter("runtime.task_restarts");
  const std::uint64_t relaunches = snapshot.counter("yarn.container_relaunches");
  bool any_engine = false;
  for (const auto& engine : kEngines) {
    any_engine = any_engine || snapshot.counter(engine.restarts) > 0 ||
                 snapshot.counter(engine.replayed) > 0;
  }
  if (!any_engine && injected == 0 && task_restarts == 0 && relaunches == 0) {
    return "";
  }

  std::string out = "recovery summary\n";
  out += "  " + pad_right("engine", 7) + pad_left("restarts", 10) +
         pad_left("replayed", 12) + pad_left("recovery_ms", 13) + "\n";
  for (const auto& engine : kEngines) {
    out += "  " + pad_right(engine.name, 7) +
           pad_left(std::to_string(snapshot.counter(engine.restarts)), 10) +
           pad_left(std::to_string(snapshot.counter(engine.replayed)), 12);
    out += engine.time_ms != nullptr
               ? pad_left(format_double(snapshot.gauge(engine.time_ms), 2), 13)
               : pad_left("-", 13);
    out += "\n";
  }
  out += "  faults injected: " + std::to_string(injected);
  for (const auto& [name, value] : snapshot.counters_with_prefix("fault.")) {
    if (name == "fault.injected" || value == 0) continue;
    out += "  " + name.substr(std::string("fault.").size()) + "=" +
           std::to_string(value);
  }
  out += "\n  supervised task restarts: " + std::to_string(task_restarts) +
         "    yarn container relaunches: " + std::to_string(relaunches) + "\n";
  return out;
}

std::string render_scaling_table(const std::vector<ScalingPoint>& points) {
  if (points.empty()) return "";
  std::size_t setup_width = std::string("setup").size();
  std::size_t query_width = std::string("query").size();
  for (const auto& p : points) {
    setup_width = std::max(setup_width, p.setup.size());
    query_width = std::max(query_width, p.query.size());
  }

  std::string out = "scaling efficiency (throughput(P) / (P * throughput(1)))\n";
  out += "  " + pad_right("setup", setup_width) + "  " +
         pad_right("query", query_width) + pad_left("P", 4) +
         pad_left("rec/s", 12) + pad_left("speedup", 9) +
         pad_left("eff", 7) + pad_left("slowdown", 10) + "\n";
  std::string last_block;
  for (const auto& p : points) {
    const std::string block = p.setup + "/" + p.query;
    if (!last_block.empty() && block != last_block) out += "\n";
    last_block = block;
    out += "  " + pad_right(p.setup, setup_width) + "  " +
           pad_right(p.query, query_width) +
           pad_left(std::to_string(p.parallelism), 4) +
           pad_left(format_double(p.records_per_sec, 0), 12) +
           pad_left(format_double(p.speedup, 2), 9) +
           pad_left(format_double(p.efficiency, 2), 7);
    out += p.slowdown > 0.0 ? pad_left(format_double(p.slowdown, 2), 10)
                            : pad_left("-", 10);
    out += "\n";
  }
  return out;
}

std::string render_partition_gauges(const runtime::MetricsSnapshot& snapshot) {
  std::vector<std::pair<std::string, double>> lag;
  std::vector<std::pair<std::string, double>> depth;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("kafka.consumer.lag.", 0) == 0) {
      lag.emplace_back(
          name.substr(std::string("kafka.consumer.lag.").size()), value);
    } else if (name.find(".channel.") != std::string::npos &&
               name.size() > 11 &&
               name.compare(name.size() - 11, 11, ".peak_depth") == 0) {
      depth.emplace_back(name, value);
    }
  }
  if (lag.empty() && depth.empty()) return "";

  std::string out = "per-partition data plane\n";
  if (!lag.empty()) {
    out += "  consumer lag (group.topic.partition -> records behind)\n";
    for (const auto& [name, value] : lag) {
      out += "    " + name + " = " + format_double(value, 0) + "\n";
    }
  }
  if (!depth.empty()) {
    out += "  channel peak queue depth (vertex.subtask -> records)\n";
    for (const auto& [name, value] : depth) {
      out += "    " + name + " = " + format_double(value, 0) + "\n";
    }
  }
  return out;
}

std::string render_profile_breakdown(
    const std::vector<std::pair<std::string, runtime::ProfileSnapshot>>&
        per_setup) {
  bool any = false;
  std::size_t label_width = std::string("setup").size();
  for (const auto& [label, profile] : per_setup) {
    any = any || profile.attributed_us() > 0;
    label_width = std::max(label_width, label.size());
  }
  if (!any) return "";

  std::string out =
      "cost breakdown (share of attributed time per stage; exact per-batch "
      "scopes)\n";
  out += "  " + pad_right("setup", label_width) + pad_left("attrib_ms", 11) +
         pad_left("busy_ms", 11);
  for (std::size_t s = 0; s < runtime::kStageCount; ++s) {
    out += pad_left(
        std::string(runtime::stage_name(static_cast<runtime::Stage>(s))), 11);
  }
  out += "\n";
  for (const auto& [label, profile] : per_setup) {
    const std::uint64_t attributed = profile.attributed_us();
    out += "  " + pad_right(label, label_width) +
           pad_left(format_double(static_cast<double>(attributed) / 1e3, 1),
                    11) +
           pad_left(format_double(
                        static_cast<double>(profile.busy_us()) / 1e3, 1),
                    11);
    for (std::size_t s = 0; s < runtime::kStageCount; ++s) {
      const auto stage = static_cast<runtime::Stage>(s);
      out += attributed == 0
                 ? pad_left("-", 11)
                 : pad_left(format_double(profile.share(stage) * 100.0, 1) +
                                "%",
                            11);
    }
    out += "\n";
  }

  // The heaviest instrumented sites across all setups, for "which operator
  // is the hot one" at a glance.
  std::map<std::string, runtime::StageCost> operators;
  for (const auto& [label, profile] : per_setup) {
    for (const auto& [name, cost] : profile.operators) {
      operators[name] += cost;
    }
  }
  std::vector<std::pair<std::string, runtime::StageCost>> ranked(
      operators.begin(), operators.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  constexpr std::size_t kTopOperators = 8;
  if (!ranked.empty()) {
    out += "  top operators by attributed time:\n";
    for (std::size_t i = 0; i < ranked.size() && i < kTopOperators; ++i) {
      if (ranked[i].second.total_ns == 0) break;
      out += "    " + ranked[i].first + " = " +
             format_double(
                 static_cast<double>(ranked[i].second.total_ns) / 1e6, 1) +
             "ms (" + std::to_string(ranked[i].second.calls) + " calls)\n";
    }
  }
  return out;
}

std::string render_serde_table(
    const std::vector<std::pair<std::string, SerdeStats>>& per_setup) {
  bool any = false;
  std::size_t label_width = std::string("setup").size();
  for (const auto& [label, serde] : per_setup) {
    any = any || serde.encode_records > 0 || serde.decode_records > 0;
    label_width = std::max(label_width, label.size());
  }
  if (!any) return "";

  std::string out = "serde activity (runtime.serde.* deltas)\n";
  out += "  " + pad_right("setup", label_width) + pad_left("enc_recs", 11) +
         pad_left("enc_bytes", 12) + pad_left("dec_recs", 11) +
         pad_left("dec_bytes", 12) + "\n";
  for (const auto& [label, serde] : per_setup) {
    out += "  " + pad_right(label, label_width) +
           pad_left(std::to_string(serde.encode_records), 11) +
           pad_left(std::to_string(serde.encode_bytes), 12) +
           pad_left(std::to_string(serde.decode_records), 11) +
           pad_left(std::to_string(serde.decode_bytes), 12) + "\n";
  }
  return out;
}

std::string render_producer_pipeline(const runtime::MetricsSnapshot& snapshot) {
  const auto wait = snapshot.histograms.find("kafka.producer.queue_wait_us");
  const bool has_wait =
      wait != snapshot.histograms.end() && wait->second.count > 0;
  const bool has_inflight =
      snapshot.gauges.contains("kafka.producer.inflight");
  if (!has_wait && !has_inflight) return "";

  std::string out = "async producer pipeline\n";
  if (has_inflight) {
    out += "  in-flight requests (last observed window) = " +
           format_double(snapshot.gauge("kafka.producer.inflight"), 0) + "\n";
  }
  if (has_wait) {
    const auto& h = wait->second;
    out += "  sender queue wait: batches=" + std::to_string(h.count) +
           "  mean=" + format_double(h.mean_us(), 1) + "us" +
           "  p99<=" + std::to_string(h.percentile_us(0.99)) + "us\n";
  }
  return out;
}

}  // namespace dsps::harness
