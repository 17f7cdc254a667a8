// Ablation micro-benchmarks for the design choices DESIGN.md calls out:
// each one isolates a mechanism behind the paper's slowdown factors so the
// cost structure can be inspected independently of the full benchmark.
//
//   * operator chaining on/off      (why native Flink is fast, Fig. 12/13)
//   * type-erased element boxing    (the Beam envelope per element)
//   * windowed-value serialization  (the Apex runner's per-hop cost)
//   * channel hop                   (unfused operators exchange via queues)
//   * producer batching x RTT       (the output-proportional Apex penalty)
// The end-to-end fusion ablation is a section of bench/dataplane.
#include <benchmark/benchmark.h>

#include <any>
#include <string>

#include "beam/coders.hpp"
#include "beam/element.hpp"
#include "common/queue.hpp"
#include "flink/environment.hpp"
#include "kafka/broker.hpp"
#include "kafka/producer.hpp"

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
    // copy the window and pane, unbox.
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

}  // namespace

BENCHMARK_MAIN();
