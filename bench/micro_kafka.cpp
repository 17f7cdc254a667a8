// MiniKafka primitives: append/fetch throughput, batch effects, consumer
// polling — establishes the broker baseline the engine numbers sit on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "kafka/broker.hpp"
#include "kafka/consumer.hpp"
#include "kafka/producer.hpp"

namespace {

using namespace dsps;

void BM_AppendSingle(benchmark::State& state) {
  kafka::Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  const kafka::ProducerRecord record{.value = std::string(64, 'x')};
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker.append({"t", 0}, record, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppendSingle);

void BM_AppendBatch(benchmark::State& state) {
  kafka::Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  const std::vector<kafka::ProducerRecord> batch(
      static_cast<std::size_t>(state.range(0)),
      kafka::ProducerRecord{.value = std::string(64, 'x')});
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker.append_batch({"t", 0}, batch, false));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AppendBatch)->Arg(10)->Arg(100)->Arg(1000);

// One benchmark setup run's output topic: create, fill with 200k 64-byte
// records in 500-record producer batches, delete. BM_AppendBatch grows one
// topic forever; this is the pattern where a deleted topic's memory can
// serve the next one.
void BM_AppendFreshTopic(benchmark::State& state) {
  constexpr int kRecords = 200'000;
  constexpr int kBatch = 500;
  kafka::Broker broker;
  const std::vector<kafka::ProducerRecord> batch(
      kBatch, kafka::ProducerRecord{.value = std::string(64, 'x')});
  for (auto _ : state) {
    broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
    for (int sent = 0; sent < kRecords; sent += kBatch) {
      benchmark::DoNotOptimize(broker.append_batch({"t", 0}, batch, false));
    }
    broker.delete_topic("t").expect_ok();
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_AppendFreshTopic);

void BM_AppendWithReplication(benchmark::State& state) {
  kafka::Broker broker;
  broker
      .create_topic("t", kafka::TopicConfig{.partitions = 1,
                                            .replication_factor = 3})
      .expect_ok();
  const kafka::ProducerRecord record{.value = std::string(64, 'x')};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        broker.append({"t", 0}, record, /*wait_for_replication=*/true));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppendWithReplication);

void BM_FetchRange(benchmark::State& state) {
  kafka::Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 10000; ++i) {
    broker
        .append({"t", 0},
                kafka::ProducerRecord{.value = std::string(64, 'x')}, false)
        .status()
        .expect_ok();
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<kafka::StoredRecord> out;
  std::int64_t offset = 0;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(broker.fetch({"t", 0}, offset, n, out));
    offset = (offset + static_cast<std::int64_t>(n)) % 9000;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FetchRange)->Arg(100)->Arg(1000);

void BM_ConsumerPollLoop(benchmark::State& state) {
  kafka::Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 50000; ++i) {
    broker
        .append({"t", 0},
                kafka::ProducerRecord{.value = std::string(64, 'x')}, false)
        .status()
        .expect_ok();
  }
  for (auto _ : state) {
    kafka::Consumer consumer(broker,
                             kafka::ConsumerConfig{.max_poll_records = 1000});
    consumer.subscribe("t", /*bounded=*/true).expect_ok();
    std::size_t total = 0;
    kafka::FetchBatch batch;
    kafka::FetchState fetch_state = kafka::FetchState::kOk;
    while (fetch_state != kafka::FetchState::kClosed) {
      fetch_state = consumer.poll_batch(0, batch);
      total += batch.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_ConsumerPollLoop);

void BM_ProducerSendBatched(benchmark::State& state) {
  kafka::Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  kafka::Producer producer(
      broker, kafka::ProducerConfig{
                  .batch_size = static_cast<std::size_t>(state.range(0)),
                  .linger_us = 0});
  const std::string value(64, 'x');
  for (auto _ : state) {
    producer.send("t", 0, kafka::ProducerRecord{.value = value}).expect_ok();
  }
  producer.flush().expect_ok();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProducerSendBatched)->Arg(1)->Arg(100)->Arg(1000);

// The producer as every sink and the ingest path configure it: default
// batch_size and linger, so send() also tests the linger deadline. The
// benches above set linger_us = 0 and never take that branch. The value is
// one shared Payload, so a send costs a refcount bump rather than a copy, and
// the topic is recreated per iteration as in BM_AppendFreshTopic.
void BM_ProducerSendDefaultConfig(benchmark::State& state) {
  constexpr int kRecords = 200'000;
  const kafka::Payload value(std::string(64, 'x'));
  kafka::Broker broker;
  broker.set_rtt_us(0);
  for (auto _ : state) {
    broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
    kafka::Producer producer(broker, kafka::ProducerConfig{});
    for (int i = 0; i < kRecords; ++i) {
      producer.send("t", 0, kafka::ProducerRecord{.value = value}).expect_ok();
    }
    producer.close().expect_ok();
    broker.delete_topic("t").expect_ok();
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_ProducerSendDefaultConfig)->Unit(benchmark::kMillisecond);

// --- producer under simulated RTT -------------------------------------------
//
// Same broker RTT as the harness default (25us): the producer pays one
// blocking RTT per shipped batch on the caller thread. p99_send_us is the
// caller-visible per-record send cost.

void BM_ProducerSyncUnderRtt(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  constexpr int kRecords = 2000;
  kafka::Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.set_rtt_us(25);
  const std::string value(64, 'x');
  std::vector<std::int64_t> send_ns;
  send_ns.reserve(static_cast<std::size_t>(state.max_iterations) * kRecords);
  for (auto _ : state) {
    kafka::Producer producer(
        broker, kafka::ProducerConfig{.batch_size = batch, .linger_us = 0});
    for (int i = 0; i < kRecords; ++i) {
      const auto start = std::chrono::steady_clock::now();
      producer.send("t", 0, kafka::ProducerRecord{.value = value}).expect_ok();
      send_ns.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
    producer.close().expect_ok();
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
  std::sort(send_ns.begin(), send_ns.end());
  const std::int64_t p99 =
      send_ns.empty() ? 0 : send_ns[send_ns.size() * 99 / 100];
  state.counters["p99_send_us"] =
      benchmark::Counter(static_cast<double>(p99) / 1e3);
  state.SetLabel("batch=" + std::to_string(batch) + " rtt=25us");
}
// batch=1 is the Beam-on-Apex writer shape; batch=500 the native sink.
BENCHMARK(BM_ProducerSyncUnderRtt)->Arg(1)->Arg(64)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
