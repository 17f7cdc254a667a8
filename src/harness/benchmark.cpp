#include "harness/benchmark.hpp"

#include "common/clock.hpp"
#include "runtime/metrics.hpp"
#include "workload/aol_generator.hpp"
#include "workload/data_sender.hpp"

namespace dsps::harness {

std::string setup_label(const SetupKey& key) {
  std::string label = queries::engine_name(key.engine);
  if (key.sdk == queries::Sdk::kBeam) label += " Beam";
  label += " P" + std::to_string(key.parallelism);
  return label;
}

std::vector<double> SetupMeasurements::execution_times() const {
  std::vector<double> times;
  times.reserve(runs.size());
  for (const auto& run : runs) times.push_back(run.execution_seconds);
  return times;
}

BenchmarkHarness::BenchmarkHarness(HarnessConfig config)
    : config_(config), noise_(config.noise) {
  broker_.set_rtt_us(config_.broker_rtt_us);
  if (config_.profile && !runtime::Profiler::instance().armed()) {
    runtime::Profiler::instance().arm();
  }
}

std::uint64_t BenchmarkHarness::expected_grep_matches() const {
  workload::AolGenerator generator(workload::AolGeneratorConfig{
      .record_count = config_.records, .seed = config_.seed});
  return generator.grep_match_count();
}

Status BenchmarkHarness::ingest() {
  if (ingested_) return Status::ok();
  if (Status s = workload::create_benchmark_topic(
          broker_, input_topic_, std::max(1, config_.input_partitions));
      !s.is_ok()) {
    return s;
  }
  workload::AolGenerator generator(workload::AolGeneratorConfig{
      .record_count = config_.records, .seed = config_.seed});
  workload::DataSender sender(
      broker_, workload::DataSenderConfig{.topic = input_topic_});
  auto report = sender.send_generated(generator);
  if (!report.is_ok()) return report.status();
  ingested_ = true;
  return Status::ok();
}

Result<RunMeasurement> BenchmarkHarness::run_once(const SetupKey& key) {
  if (Status s = ingest(); !s.is_ok()) return s;

  const std::string output_topic =
      "benchmark-output-" + std::to_string(next_output_id_++);
  // Output fans out with the setup's parallelism so parallel sinks write
  // disjoint logs; the ResultCalculator already spans all partitions.
  if (Status s = workload::create_benchmark_topic(
          broker_, output_topic, std::max(1, key.parallelism));
      !s.is_ok()) {
    return s;
  }

  queries::QueryContext ctx;
  ctx.broker = &broker_;
  ctx.input_topic = input_topic_;
  ctx.output_topic = output_topic;
  ctx.parallelism = key.parallelism;
  ctx.seed = config_.seed;
  ctx.fuse_stages = config_.fuse_stages;
  ctx.async_sinks = config_.async_sinks;

  RunMeasurement measurement;
  // Optional seeded noise (Table III's outlier analysis): pause before the
  // run, emulating a co-tenant VM stealing the machine mid-benchmark.
  measurement.injected_pause_ms = noise_.maybe_pause();

  Stopwatch wall;
  // Noise pauses model interference *during* the run; fold the pause into
  // the run by injecting it between engine start and measurement end: we
  // approximate by running the query after the pause and adding the pause
  // to the measured execution time below.
  Status run = queries::run_query(key.engine, key.sdk, key.query, ctx);
  measurement.wall_seconds = wall.elapsed_seconds();
  if (!run.is_ok()) {
    (void)broker_.delete_topic(output_topic);
    return run;
  }

  ResultCalculator calculator(broker_);
  auto result = calculator.calculate(output_topic);
  (void)broker_.delete_topic(output_topic);
  if (!result.is_ok()) return result.status();
  measurement.execution_seconds =
      result.value().execution_seconds +
      static_cast<double>(measurement.injected_pause_ms) / 1e3;
  measurement.output_records = result.value().output_records;
  return measurement;
}

namespace {

std::uint64_t counter_delta(const runtime::MetricsSnapshot& before,
                            const runtime::MetricsSnapshot& after,
                            const std::string& name) {
  const auto later = after.counters.find(name);
  if (later == after.counters.end()) return 0;
  const auto earlier = before.counters.find(name);
  const std::uint64_t base =
      earlier == before.counters.end() ? 0 : earlier->second;
  return later->second - base;
}

}  // namespace

Result<SetupMeasurements> BenchmarkHarness::run_setup(const SetupKey& key) {
  SetupMeasurements measurements;
  measurements.key = key;
  // Snapshot deltas bracket the setup so its profile excludes previous
  // setups' costs (cheap no-op maps when the profiler is disarmed).
  const runtime::ProfileSnapshot before =
      runtime::Profiler::instance().snapshot();
  const runtime::MetricsSnapshot metrics_before =
      runtime::MetricsRegistry::global().snapshot();
  for (int r = 0; r < config_.runs; ++r) {
    auto run = run_once(key);
    if (!run.is_ok()) return run.status();
    measurements.runs.push_back(run.value());
  }
  measurements.profile =
      runtime::Profiler::instance().snapshot().since(before);
  const runtime::MetricsSnapshot metrics_after =
      runtime::MetricsRegistry::global().snapshot();
  measurements.serde = SerdeStats{
      .encode_records = counter_delta(metrics_before, metrics_after,
                                      "runtime.serde.encode.records"),
      .encode_bytes = counter_delta(metrics_before, metrics_after,
                                    "runtime.serde.encode.bytes"),
      .decode_records = counter_delta(metrics_before, metrics_after,
                                      "runtime.serde.decode.records"),
      .decode_bytes = counter_delta(metrics_before, metrics_after,
                                    "runtime.serde.decode.bytes")};
  return measurements;
}

}  // namespace dsps::harness
