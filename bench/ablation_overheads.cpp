// Ablation micro-benchmarks for the design choices DESIGN.md calls out:
// each one isolates a mechanism behind the paper's slowdown factors so the
// cost structure can be inspected independently of the full benchmark.
//
//   * operator chaining on/off      (why native Flink is fast, Fig. 12/13)
//   * type-erased element boxing    (the Beam envelope per element)
//   * windowed-value serialization  (the Apex runner's per-hop cost)
//   * channel hop                   (unfused operators exchange via queues)
//   * producer batching x RTT       (the output-proportional Apex penalty)
// After the micro-benchmarks, main() runs the fusion ablation: for every
// query x engine it measures native, Beam unfused, and Beam fused
// (STREAMSHIM_FUSE_STAGES semantics), and reports how much of each paper
// slowdown factor the fusion pass recovers. The sweep is merged into
// BENCH_dataplane.json as a "fusion" section.
//
// The async-sinks ablation follows the same shape: every query x engine,
// native and Beam, sync vs async sink producers (STREAMSHIM_ASYNC_SINKS
// semantics), merged as an "async_sinks" section. STREAMSHIM_SWEEP selects
// which harness sweeps run (all | fusion | async); the Google-benchmark
// micro rows always run and obey --benchmark_filter.
#include <benchmark/benchmark.h>

#include <any>
#include <string>
#include <vector>

#include "beam/coders.hpp"
#include "beam/element.hpp"
#include "bench_util.hpp"
#include "common/queue.hpp"
#include "flink/environment.hpp"
#include "kafka/broker.hpp"
#include "kafka/producer.hpp"
#include "runtime/metrics.hpp"

namespace {

using namespace dsps;

// --- operator chaining -------------------------------------------------------

flink::SourceFactory int_source(int n) {
  class IntSource final : public flink::SourceFunction {
   public:
    explicit IntSource(int n) : n_(n) {}
    void run(flink::SourceContext& context) override {
      for (int i = 0; i < n_; ++i) {
        context.collect(flink::make_elem<int>(i));
      }
    }

   private:
    int n_;
  };
  return [n] { return std::make_unique<IntSource>(n); };
}

void run_flink_pipeline(bool chaining, int records) {
  flink::StreamExecutionEnvironment env;
  if (!chaining) env.disable_operator_chaining();
  env.add_source<int>(int_source(records))
      .map<int>([](const int& v) { return v + 1; })
      .filter([](const int& v) { return v % 2 == 0; })
      .map<int>([](const int& v) { return v * 3; })
      .for_each([](const int&) {});
  env.execute().status().expect_ok();
}

void BM_FlinkPipeline_ChainingOn(benchmark::State& state) {
  for (auto _ : state) {
    run_flink_pipeline(true, static_cast<int>(state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlinkPipeline_ChainingOn)->Arg(20000);

void BM_FlinkPipeline_ChainingOff(benchmark::State& state) {
  for (auto _ : state) {
    run_flink_pipeline(false, static_cast<int>(state.range(0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlinkPipeline_ChainingOff)->Arg(20000);

// --- element boxing ------------------------------------------------------------

void BM_PlainStringPass(benchmark::State& state) {
  const std::string value = "1234567\tsome aol search query\t2006-03-01";
  for (auto _ : state) {
    std::string copy = value;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_PlainStringPass);

void BM_BeamElementBoxing(benchmark::State& state) {
  const std::string value = "1234567\tsome aol search query\t2006-03-01";
  for (auto _ : state) {
    // What every translated stage does: box into the windowed envelope,
    // copy the window set, unbox via any_cast.
    beam::Element element = beam::make_element<std::string>(value, 42);
    beam::Element downstream;
    downstream.value = element.value;
    downstream.windows = element.windows;
    downstream.pane = element.pane;
    const auto& out = beam::element_value<std::string>(downstream);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BeamElementBoxing);

// --- windowed-value serialization -------------------------------------------------

void BM_WindowedValueSerde(benchmark::State& state) {
  const beam::WindowedValueCoder coder(beam::CoderTraits<std::string>::of());
  beam::Element element = beam::make_element<std::string>(
      "1234567\tsome aol search query\t2006-03-01", 42);
  for (auto _ : state) {
    const Bytes bytes = coder.encode(element);
    beam::Element restored = coder.decode(bytes);
    benchmark::DoNotOptimize(restored.timestamp);
  }
}
BENCHMARK(BM_WindowedValueSerde);

// --- channel hop -------------------------------------------------------------------

void BM_ChannelHop(benchmark::State& state) {
  BoundedQueue<flink::Elem> queue(1024);
  const flink::Elem element = flink::make_elem<std::string>("payload");
  for (auto _ : state) {
    queue.push(element);
    auto popped = queue.pop();
    benchmark::DoNotOptimize(popped);
  }
}
BENCHMARK(BM_ChannelHop);

// --- producer batching x simulated network RTT ---------------------------------------

void producer_run(std::size_t batch_size, std::int64_t rtt_us, int records) {
  kafka::Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.set_rtt_us(rtt_us);
  kafka::Producer producer(
      broker,
      kafka::ProducerConfig{.batch_size = batch_size, .linger_us = 0});
  for (int i = 0; i < records; ++i) {
    producer.send("t", 0, kafka::ProducerRecord{.value = "v"}).expect_ok();
  }
  producer.close().expect_ok();
}

void BM_ProducerBatchingUnderRtt(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    producer_run(batch, /*rtt_us=*/25, /*records=*/2000);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
  state.SetLabel("batch=" + std::to_string(batch) + " rtt=25us");
}
// batch=1 is the Beam-on-Apex writer; batch=500 is the native sink.
BENCHMARK(BM_ProducerBatchingUnderRtt)->Arg(1)->Arg(10)->Arg(100)->Arg(500);

// --- fusion sweep: how much of the abstraction penalty is recoverable --------

struct FusionRow {
  std::string engine;
  std::string query;
  double native_seconds = 0.0;
  double unfused_seconds = 0.0;
  double fused_seconds = 0.0;
  double unfused_factor = 0.0;
  double fused_factor = 0.0;
  // Fraction of the *excess* over native that fusion removed:
  //   (unfused_factor - fused_factor) / (unfused_factor - 1), in [0, 1].
  // 1.0 would mean fusion makes Beam as fast as native; what remains is the
  // structural cost of the abstraction (boxing, coders at real shuffles).
  double recovered_fraction = 0.0;
};

double setup_mean(const harness::MeasurementSet& set,
                  const harness::SetupKey& key) {
  return set.contains(key) ? mean(set.get(key).execution_times()) : 0.0;
}

std::vector<FusionRow> run_fusion_sweep(const harness::HarnessConfig& base) {
  const std::vector<workload::QueryId> sweep_queries = {
      workload::QueryId::kIdentity, workload::QueryId::kSample,
      workload::QueryId::kProjection, workload::QueryId::kGrep};
  const std::vector<queries::Engine> engines = {
      queries::Engine::kFlink, queries::Engine::kSpark, queries::Engine::kApex};

  std::vector<harness::SetupKey> unfused_setups;
  std::vector<harness::SetupKey> fused_setups;
  for (const auto query : sweep_queries) {
    for (const auto engine : engines) {
      unfused_setups.push_back(harness::SetupKey{
          .engine = engine, .sdk = queries::Sdk::kNative, .query = query,
          .parallelism = 1});
      unfused_setups.push_back(harness::SetupKey{
          .engine = engine, .sdk = queries::Sdk::kBeam, .query = query,
          .parallelism = 1});
      fused_setups.push_back(harness::SetupKey{
          .engine = engine, .sdk = queries::Sdk::kBeam, .query = query,
          .parallelism = 1});
    }
  }

  // Two harnesses over identically seeded input: the only difference is
  // PipelineOptions.fuse_stages on the Beam path.
  harness::HarnessConfig unfused_config = base;
  unfused_config.fuse_stages = false;
  harness::HarnessConfig fused_config = base;
  fused_config.fuse_stages = true;

  std::fprintf(stderr, "fusion sweep: unfused + native setups\n");
  harness::BenchmarkHarness unfused_harness(unfused_config);
  const auto unfused_set = bench::run_setups(unfused_harness, unfused_setups);
  std::fprintf(stderr, "fusion sweep: fused setups\n");
  harness::BenchmarkHarness fused_harness(fused_config);
  const auto fused_set = bench::run_setups(fused_harness, fused_setups);

  std::vector<FusionRow> rows;
  for (const auto query : sweep_queries) {
    for (const auto engine : engines) {
      FusionRow row;
      row.engine = queries::engine_name(engine);
      row.query = workload::query_info(query).name;
      row.native_seconds = setup_mean(
          unfused_set, harness::SetupKey{.engine = engine,
                                         .sdk = queries::Sdk::kNative,
                                         .query = query, .parallelism = 1});
      row.unfused_seconds = setup_mean(
          unfused_set, harness::SetupKey{.engine = engine,
                                         .sdk = queries::Sdk::kBeam,
                                         .query = query, .parallelism = 1});
      row.fused_seconds = setup_mean(
          fused_set, harness::SetupKey{.engine = engine,
                                       .sdk = queries::Sdk::kBeam,
                                       .query = query, .parallelism = 1});
      if (row.native_seconds > 0.0) {
        row.unfused_factor = row.unfused_seconds / row.native_seconds;
        row.fused_factor = row.fused_seconds / row.native_seconds;
      }
      if (row.unfused_factor > 1.0) {
        row.recovered_fraction = (row.unfused_factor - row.fused_factor) /
                                 (row.unfused_factor - 1.0);
        if (row.recovered_fraction < 0.0) row.recovered_fraction = 0.0;
        if (row.recovered_fraction > 1.0) row.recovered_fraction = 1.0;
      }
      rows.push_back(row);
    }
  }
  return rows;
}

// --- async-sinks sweep: how much of the sink-path penalty is recoverable -----

struct AsyncRow {
  std::string engine;
  std::string query;
  double native_sync_seconds = 0.0;
  double native_async_seconds = 0.0;
  double beam_sync_seconds = 0.0;
  double beam_async_seconds = 0.0;
  // Slowdown factors against *sync native* — the paper's baseline — so the
  // async columns read as "what the abstraction costs once sinks pipeline".
  double beam_sync_factor = 0.0;
  double beam_async_factor = 0.0;
  // Per-path speedups from flipping only the sink mode.
  double native_speedup = 0.0;
  double beam_speedup = 0.0;
  // Fraction of the Beam excess over sync native that async sinks removed:
  //   (beam_sync_factor - beam_async_factor) / (beam_sync_factor - 1),
  // clamped to [0, 1]. High values on Apex confirm the per-record writer
  // flush — not the Beam envelope — dominates that runner's penalty.
  double recovered_fraction = 0.0;
};

std::vector<AsyncRow> run_async_sweep(const harness::HarnessConfig& base) {
  const std::vector<workload::QueryId> sweep_queries = {
      workload::QueryId::kIdentity, workload::QueryId::kSample,
      workload::QueryId::kProjection, workload::QueryId::kGrep};
  const std::vector<queries::Engine> engines = {
      queries::Engine::kFlink, queries::Engine::kSpark, queries::Engine::kApex};

  std::vector<harness::SetupKey> setups;
  for (const auto query : sweep_queries) {
    for (const auto engine : engines) {
      setups.push_back(harness::SetupKey{
          .engine = engine, .sdk = queries::Sdk::kNative, .query = query,
          .parallelism = 1});
      setups.push_back(harness::SetupKey{
          .engine = engine, .sdk = queries::Sdk::kBeam, .query = query,
          .parallelism = 1});
    }
  }

  // Two harnesses over identically seeded input: the only difference is
  // HarnessConfig.async_sinks (-> QueryContext.async_sinks -> every sink).
  harness::HarnessConfig sync_config = base;
  sync_config.async_sinks = false;
  harness::HarnessConfig async_config = base;
  async_config.async_sinks = true;

  std::fprintf(stderr, "async sweep: sync sinks (paper baseline)\n");
  harness::BenchmarkHarness sync_harness(sync_config);
  const auto sync_set = bench::run_setups(sync_harness, setups);
  std::fprintf(stderr, "async sweep: async pipelined sinks\n");
  harness::BenchmarkHarness async_harness(async_config);
  const auto async_set = bench::run_setups(async_harness, setups);

  std::vector<AsyncRow> rows;
  for (const auto query : sweep_queries) {
    for (const auto engine : engines) {
      const harness::SetupKey native_key{.engine = engine,
                                         .sdk = queries::Sdk::kNative,
                                         .query = query, .parallelism = 1};
      const harness::SetupKey beam_key{.engine = engine,
                                       .sdk = queries::Sdk::kBeam,
                                       .query = query, .parallelism = 1};
      AsyncRow row;
      row.engine = queries::engine_name(engine);
      row.query = workload::query_info(query).name;
      row.native_sync_seconds = setup_mean(sync_set, native_key);
      row.native_async_seconds = setup_mean(async_set, native_key);
      row.beam_sync_seconds = setup_mean(sync_set, beam_key);
      row.beam_async_seconds = setup_mean(async_set, beam_key);
      if (row.native_sync_seconds > 0.0) {
        row.beam_sync_factor = row.beam_sync_seconds / row.native_sync_seconds;
        row.beam_async_factor =
            row.beam_async_seconds / row.native_sync_seconds;
      }
      if (row.native_async_seconds > 0.0) {
        row.native_speedup = row.native_sync_seconds / row.native_async_seconds;
      }
      if (row.beam_async_seconds > 0.0) {
        row.beam_speedup = row.beam_sync_seconds / row.beam_async_seconds;
      }
      if (row.beam_sync_factor > 1.0) {
        row.recovered_fraction =
            (row.beam_sync_factor - row.beam_async_factor) /
            (row.beam_sync_factor - 1.0);
        if (row.recovered_fraction < 0.0) row.recovered_fraction = 0.0;
        if (row.recovered_fraction > 1.0) row.recovered_fraction = 1.0;
      }
      rows.push_back(row);
    }
  }
  return rows;
}

/// Shared with every section-writing bench: replaces one section of
/// BENCH_dataplane.json in place without disturbing the others.
using bench::merge_section_into_dataplane;

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const auto config = bench::config_from_env();
  const std::string sweep = env_string("STREAMSHIM_SWEEP", "all");
  const bool do_fusion = sweep == "all" || sweep == "fusion";
  const bool do_async = sweep == "all" || sweep == "async";
  if (!do_fusion && !do_async) {
    std::fprintf(stderr, "unknown STREAMSHIM_SWEEP=%s (all|fusion|async)\n",
                 sweep.c_str());
    return 1;
  }

  if (do_fusion) {
    std::printf(
        "\n=== Fusion ablation (native vs Beam unfused vs fused) ===\n");
    bench::print_scale(config);
    const auto rows = run_fusion_sweep(config);

    std::printf("%-6s %-10s %10s %11s %9s %9s %7s %10s\n", "engine", "query",
                "native_s", "unfused_s", "fused_s", "unfused", "fused",
                "recovered");
    for (const auto& row : rows) {
      std::printf("%-6s %-10s %10.4f %11.4f %9.4f %8.2fx %6.2fx %9.0f%%\n",
                  row.engine.c_str(), row.query.c_str(), row.native_seconds,
                  row.unfused_seconds, row.fused_seconds, row.unfused_factor,
                  row.fused_factor, row.recovered_fraction * 100.0);
    }

    std::string section = "  \"fusion\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "    {\"engine\": \"%s\", \"query\": \"%s\", "
                    "\"native_seconds\": %.6f, \"unfused_seconds\": %.6f, "
                    "\"fused_seconds\": %.6f, \"unfused_factor\": %.4f, "
                    "\"fused_factor\": %.4f, \"recovered_fraction\": %.4f}%s\n",
                    row.engine.c_str(), row.query.c_str(), row.native_seconds,
                    row.unfused_seconds, row.fused_seconds, row.unfused_factor,
                    row.fused_factor, row.recovered_fraction,
                    i + 1 < rows.size() ? "," : "");
      section += line;
    }
    section += "  ]\n";
    if (!merge_section_into_dataplane("fusion", section)) return 1;
    std::printf("\nwrote fusion section into BENCH_dataplane.json\n");
  }

  if (do_async) {
    std::printf("\n=== Async-sinks ablation (sync vs pipelined sinks) ===\n");
    bench::print_scale(config);
    const auto rows = run_async_sweep(config);

    std::printf("%-6s %-10s %9s %9s %9s %9s %8s %8s %8s %8s %10s\n", "engine",
                "query", "nat_sync", "nat_asyn", "beam_syn", "beam_asy",
                "syncfac", "asynfac", "nat_spd", "beam_spd", "recovered");
    for (const auto& row : rows) {
      std::printf(
          "%-6s %-10s %9.4f %9.4f %9.4f %9.4f %7.2fx %7.2fx %7.2fx %7.2fx "
          "%9.0f%%\n",
          row.engine.c_str(), row.query.c_str(), row.native_sync_seconds,
          row.native_async_seconds, row.beam_sync_seconds,
          row.beam_async_seconds, row.beam_sync_factor, row.beam_async_factor,
          row.native_speedup, row.beam_speedup,
          row.recovered_fraction * 100.0);
    }
    const std::string pipeline_block = harness::render_producer_pipeline(
        runtime::MetricsRegistry::global().snapshot());
    if (!pipeline_block.empty()) std::printf("\n%s", pipeline_block.c_str());

    std::string section = "  \"async_sinks\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      char line[640];
      std::snprintf(
          line, sizeof(line),
          "    {\"engine\": \"%s\", \"query\": \"%s\", \"records\": %llu, "
          "\"native_sync_seconds\": %.6f, \"native_async_seconds\": %.6f, "
          "\"beam_sync_seconds\": %.6f, \"beam_async_seconds\": %.6f, "
          "\"beam_sync_factor\": %.4f, \"beam_async_factor\": %.4f, "
          "\"native_speedup\": %.4f, \"beam_speedup\": %.4f, "
          "\"recovered_fraction\": %.4f}%s\n",
          row.engine.c_str(), row.query.c_str(),
          static_cast<unsigned long long>(config.records),
          row.native_sync_seconds, row.native_async_seconds,
          row.beam_sync_seconds, row.beam_async_seconds, row.beam_sync_factor,
          row.beam_async_factor, row.native_speedup, row.beam_speedup,
          row.recovered_fraction, i + 1 < rows.size() ? "," : "");
      section += line;
    }
    section += "  ]\n";
    if (!merge_section_into_dataplane("async_sinks", section)) return 1;
    std::printf("\nwrote async_sinks section into BENCH_dataplane.json\n");
  }
  return 0;
}
