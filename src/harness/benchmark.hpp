// Benchmark orchestration: the three-phase process of §III-A2.
//
//   1. Data ingestion — the data sender loads the input topic (one
//      partition, replication factor 1) with AOL-like records, once.
//   2. Program execution — every (engine, sdk, query, parallelism) setup
//      runs `runs` times; each run gets a fresh engine instance ("each
//      system is restarted") and a fresh output topic.
//   3. Result calculation — execution time from broker append timestamps.
#pragma once

#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/noise.hpp"
#include "common/status.hpp"
#include "kafka/broker.hpp"
#include "queries/query_factory.hpp"
#include "harness/result_calculator.hpp"
#include "runtime/profiler.hpp"

namespace dsps::harness {

struct SetupKey {
  queries::Engine engine;
  queries::Sdk sdk;
  workload::QueryId query;
  int parallelism = 1;
};

/// "Apex Beam P1", "Flink P2", ... — the y-axis labels of Figs. 6-9.
std::string setup_label(const SetupKey& key);

struct RunMeasurement {
  double execution_seconds = 0.0;   // the paper's metric
  double wall_seconds = 0.0;        // sanity cross-check
  std::int64_t output_records = 0;
  std::int64_t injected_pause_ms = 0;  // noise model, Table III only
};

/// runtime.serde.* counter deltas accumulated over one setup's runs: what
/// the serialization layer actually did (always counted — the counters are
/// cheap sharded adds).
struct SerdeStats {
  std::uint64_t encode_records = 0;
  std::uint64_t encode_bytes = 0;
  std::uint64_t decode_records = 0;
  std::uint64_t decode_bytes = 0;
};

struct SetupMeasurements {
  SetupKey key;
  std::vector<RunMeasurement> runs;
  /// Cost-attribution delta accumulated over this setup's runs. All zeros
  /// unless the profiler is armed (HarnessConfig::profile).
  runtime::ProfileSnapshot profile;
  /// Serde-layer counter deltas over this setup's runs.
  SerdeStats serde;

  std::vector<double> execution_times() const;
};

struct HarnessConfig {
  std::uint64_t records = 20'000;
  int runs = 3;
  std::uint64_t seed = 42;
  /// Simulated broker network RTT per producer flush (§DESIGN.md: stands in
  /// for the paper's inter-VM network; calibrated so the structural cost
  /// ratios land in the paper's bands at the default 20k-record scale).
  std::int64_t broker_rtt_us = 25;
  NoiseConfig noise;  // disabled by default
  /// Beam setups only: run the fusion optimizer (beam/fusion.hpp). Default
  /// off — figure reproductions measure the paper's unfused plans; the
  /// fusion sweep bench flips this to quantify the recoverable share.
  bool fuse_stages = false;
  /// Input topic partitions. 1 = the paper's setup (ordered single log);
  /// the scale-out sweep fans the input out so N parallel consumers can
  /// drain N partitions concurrently.
  int input_partitions = 1;
  /// Arm the cost-attribution profiler for the harness run
  /// (STREAMSHIM_PROFILE). Default off: disarmed scopes cost one relaxed
  /// atomic load, so paper-faithful numbers are untouched.
  bool profile = false;

  static HarnessConfig from_env() {
    const BenchScale scale = resolve_bench_scale();
    HarnessConfig config;
    config.records = scale.records;
    config.runs = scale.runs;
    config.seed = scale.seed;
    config.fuse_stages = env_flag("STREAMSHIM_FUSE_STAGES");
    config.profile = env_flag("STREAMSHIM_PROFILE");
    return config;
  }
};

/// Owns the broker and the ingested input topic; runs setups on demand.
class BenchmarkHarness {
 public:
  explicit BenchmarkHarness(HarnessConfig config);

  /// Phase 1. Idempotent; called lazily by run_setup if needed.
  Status ingest();

  /// Phases 2+3 for one setup.
  Result<SetupMeasurements> run_setup(const SetupKey& key);

  /// One run (fresh engine + output topic). Phase 2+3 for a single run.
  Result<RunMeasurement> run_once(const SetupKey& key);

  kafka::Broker& broker() noexcept { return broker_; }
  const HarnessConfig& config() const noexcept { return config_; }
  const std::string& input_topic() const noexcept { return input_topic_; }
  std::uint64_t expected_grep_matches() const;

 private:
  HarnessConfig config_;
  kafka::Broker broker_;
  std::string input_topic_ = "benchmark-input";
  bool ingested_ = false;
  int next_output_id_ = 0;
  NoiseInjector noise_;
};

}  // namespace dsps::harness
