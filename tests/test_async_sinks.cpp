// Async pipelined sink path tests: the async producer's ordering, ack,
// backpressure and drain contracts; its retry interplay with seeded chaos;
// the Apex sink's non-throwing teardown (close_status surfacing); and the
// end-to-end differentials — async output must be multiset-identical to
// sync output for every query on every runner, fused and unfused, with and
// without recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apex/operators_library.hpp"
#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/apex_runner.hpp"
#include "beam/runners/direct_runner.hpp"
#include "beam/runners/flink_runner.hpp"
#include "beam/runners/spark_runner.hpp"
#include "kafka/broker.hpp"
#include "kafka/producer.hpp"
#include "queries/query_factory.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "workload/streambench.hpp"

namespace dsps {
namespace {

using kafka::Acks;
using kafka::Broker;
using kafka::Producer;
using kafka::ProducerConfig;
using kafka::ProducerRecord;
using runtime::FaultInjector;
using runtime::FaultPoint;
using runtime::FaultRule;
using runtime::Payload;

void load_topic(Broker& broker, const std::string& topic, int n) {
  broker.create_topic(topic, kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < n; ++i) {
    // Tab-separated rows; every 7th contains the Grep needle.
    const std::string value = (i % 7 == 0 ? "a test row " : "a plain row ") +
                              std::to_string(i) + "\tsecond-col";
    broker.append({topic, 0}, ProducerRecord{.value = value}, false)
        .status()
        .expect_ok();
  }
}

std::vector<std::string> read_partition(Broker& broker,
                                        const std::string& topic,
                                        int partition) {
  std::vector<kafka::StoredRecord> stored;
  broker.fetch({topic, partition}, 0, 1'000'000, stored).status().expect_ok();
  std::vector<std::string> values;
  values.reserve(stored.size());
  for (auto& record : stored) values.push_back(record.value.str());
  return values;
}

std::vector<std::string> read_topic_sorted(Broker& broker,
                                           const std::string& topic) {
  auto values = read_partition(broker, topic, 0);
  std::sort(values.begin(), values.end());
  return values;
}

// --- async producer contracts ------------------------------------------------

TEST(AsyncProducerTest, PreservesPerPartitionOrdering) {
  constexpr int kPartitions = 4;
  constexpr int kRecords = 2000;
  Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = kPartitions})
      .expect_ok();
  broker.set_rtt_us(25);
  Producer producer(broker, ProducerConfig{.batch_size = 8, .async = true});
  for (int i = 0; i < kRecords; ++i) {
    const int partition = i % kPartitions;
    producer
        .send("t", partition,
              ProducerRecord{.value = "p" + std::to_string(partition) + "-" +
                                      std::to_string(i / kPartitions)})
        .expect_ok();
  }
  producer.close().expect_ok();

  for (int p = 0; p < kPartitions; ++p) {
    const auto values = read_partition(broker, "t", p);
    ASSERT_EQ(values.size(), static_cast<std::size_t>(kRecords / kPartitions));
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(values[i], "p" + std::to_string(p) + "-" + std::to_string(i))
          << "partition " << p << " out of order at offset " << i;
    }
  }
  EXPECT_GT(producer.async_batches_sent(), 0u);
}

TEST(AsyncProducerTest, AcksAllCompletesThroughSendAck) {
  Broker broker;
  broker
      .create_topic("t", kafka::TopicConfig{.partitions = 1,
                                            .replication_factor = 3})
      .expect_ok();
  broker.set_rtt_us(25);
  Producer producer(broker, ProducerConfig{.acks = Acks::kAll,
                                           .batch_size = 5,
                                           .async = true});
  std::vector<kafka::SendAck> acks;
  for (int i = 0; i < 42; ++i) {
    acks.push_back(producer.send_with_ack(
        "t", 0, ProducerRecord{.value = "v" + std::to_string(i)}));
  }
  producer.flush().expect_ok();
  for (const auto& ack : acks) {
    EXPECT_TRUE(ack.done());
    EXPECT_TRUE(ack.wait().is_ok());
  }
  const auto end = broker.end_offset({"t", 0});
  ASSERT_TRUE(end.is_ok());
  EXPECT_EQ(end.value(), 42);
  producer.close().expect_ok();
}

TEST(AsyncProducerTest, FullPendingQueueExertsBackpressure) {
  constexpr int kRecords = 60;
  Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  // A long ack RTT with a window of one: the sender stalls on each ack, so
  // the caller outruns it and must block on the bounded pending queue.
  broker.set_rtt_us(1000);
  Producer producer(broker, ProducerConfig{.batch_size = 1,
                                           .async = true,
                                           .max_in_flight = 1,
                                           .max_pending_batches = 2});
  for (int i = 0; i < kRecords; ++i) {
    producer.send("t", 0, ProducerRecord{.value = std::to_string(i)})
        .expect_ok();
  }
  producer.close().expect_ok();
  EXPECT_GT(producer.backpressure_waits(), 0u);
  const auto end = broker.end_offset({"t", 0});
  ASSERT_TRUE(end.is_ok());
  EXPECT_EQ(end.value(), kRecords) << "backpressure lost records";
}

TEST(AsyncProducerTest, CloseDrainsEverythingWithZeroLoss) {
  // 10001 records at batch 7 leaves a partial buffer open at close — the
  // drain must ship it plus every queued and in-flight batch.
  constexpr int kRecords = 10'001;
  Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.set_rtt_us(25);
  Producer producer(broker, ProducerConfig{.batch_size = 7, .async = true});
  for (int i = 0; i < kRecords; ++i) {
    producer.send("t", 0, ProducerRecord{.value = std::to_string(i)})
        .expect_ok();
  }
  producer.close().expect_ok();
  const auto end = broker.end_offset({"t", 0});
  ASSERT_TRUE(end.is_ok());
  EXPECT_EQ(end.value(), kRecords);
  // Closed producer rejects further sends instead of losing them silently.
  EXPECT_EQ(producer.send("t", 0, ProducerRecord{.value = "late"}).code(),
            StatusCode::kClosed);
}

TEST(AsyncProducerTest, RetriesThroughSeededBrokerOutage) {
  constexpr int kRecords = 500;
  auto& injector = FaultInjector::instance();
  Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  // The second bulk append opens a 2 ms unavailability window; the sender's
  // retry-in-place loop must ride it out without dropping or reordering.
  injector.arm(7, {FaultRule{.point = FaultPoint::kBrokerUnavailable,
                             .site = "t",
                             .after_hits = 1,
                             .times = 1,
                             .param_us = 2'000}});
  Producer producer(broker, ProducerConfig{.batch_size = 5, .async = true});
  for (int i = 0; i < kRecords; ++i) {
    producer.send("t", 0, ProducerRecord{.value = std::to_string(i)})
        .expect_ok();
  }
  const Status closed = producer.close();
  const std::uint64_t injected = injector.injected_count();
  injector.disarm();
  closed.expect_ok();
  EXPECT_GT(producer.send_retries(), 0u);
  EXPECT_GT(injected, 0u);
  const auto values = read_partition(broker, "t", 0);
  ASSERT_EQ(values.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(values[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(AsyncProducerTest, PermanentOutageSurfacesStatusAtFlush) {
  auto& injector = FaultInjector::instance();
  Broker broker;
  broker.create_topic("t", kafka::TopicConfig{.partitions = 1}).expect_ok();
  // A 300 ms outage against one fast retry: the sticky async error must
  // surface as a Status at flush()/close(), never a crash or a hang.
  injector.arm(11, {FaultRule{.point = FaultPoint::kBrokerUnavailable,
                              .site = "t",
                              .after_hits = 1,
                              .times = 1,
                              .param_us = 300'000}});
  // Burn the pass-through hit so the producer's first append fires the rule
  // (after_hits == 0 would mean a seed-derived position, not "immediately").
  (void)injector.broker_unavailable("t");
  Producer producer(
      broker,
      ProducerConfig{.batch_size = 1,
                     .max_retries = 1,
                     .retry_backoff = {.initial_us = 100, .max_us = 100},
                     .async = true});
  producer.send("t", 0, ProducerRecord{.value = "doomed"}).expect_ok();
  const Status flushed = producer.flush();
  EXPECT_EQ(flushed.code(), StatusCode::kUnavailable) << flushed.to_string();
  // flush() cleared the sticky error; nothing new failed since.
  EXPECT_TRUE(producer.close().is_ok());
  injector.disarm();
}

// --- apex sink teardown (satellite: no expect_ok on the teardown path) -------

TEST(ApexSinkTeardownTest, ReportsRetryableCloseStatusInsteadOfThrowing) {
  auto& injector = FaultInjector::instance();
  Broker broker;
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  apex::KafkaPayloadOutput sink(
      broker, apex::KafkaPayloadOutput::Config{.topic = "out",
                                               .batch_size = 500});
  sink.setup(apex::OperatorContext{.name = "kafkaOutput"});
  sink.deliver(sink.input_port(), apex::make_tuple_of<Payload>("buffered"));
  // The record is still buffered (batch 500); teardown's close() must flush
  // it into a 300 ms outage, exhaust its retries, and *report* the failure
  // rather than throwing out of teardown (which can run during unwind).
  injector.arm(13, {FaultRule{.point = FaultPoint::kBrokerUnavailable,
                              .site = "out",
                              .after_hits = 1,
                              .times = 1,
                              .param_us = 300'000}});
  (void)injector.broker_unavailable("out");  // burn the pass-through hit
  EXPECT_NO_THROW(sink.teardown());
  injector.disarm();
  EXPECT_EQ(sink.close_status().code(), StatusCode::kUnavailable)
      << sink.close_status().to_string();
}

TEST(ApexSinkTeardownTest, AsyncSinkDrainsAtTeardownWithCleanStatus) {
  constexpr int kRecords = 123;
  Broker broker;
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.set_rtt_us(25);
  apex::KafkaPayloadOutput sink(
      broker, apex::KafkaPayloadOutput::Config{.topic = "out",
                                               .batch_size = 10,
                                               .async = true});
  sink.setup(apex::OperatorContext{.name = "kafkaOutput"});
  for (int i = 0; i < kRecords; ++i) {
    sink.deliver(sink.input_port(),
                 apex::make_tuple_of<Payload>(std::to_string(i)));
  }
  sink.end_window();  // async: non-blocking handoff, not a drain
  sink.teardown();
  EXPECT_TRUE(sink.close_status().is_ok()) << sink.close_status().to_string();
  const auto end = broker.end_offset({"out", 0});
  ASSERT_TRUE(end.is_ok());
  EXPECT_EQ(end.value(), kRecords);
}

// --- differential: fused+async == DirectRunner, every query, every runner ----

enum class RunnerKind { kDirect, kFlink, kSpark, kApex };

std::unique_ptr<beam::PipelineRunner> make_runner(RunnerKind kind,
                                                  bool fuse) {
  switch (kind) {
    case RunnerKind::kDirect:
      return std::make_unique<beam::DirectRunner>();
    case RunnerKind::kFlink:
      return std::make_unique<beam::FlinkRunner>(
          beam::FlinkRunnerOptions{.parallelism = 1, .fuse_stages = fuse});
    case RunnerKind::kSpark:
      return std::make_unique<beam::SparkRunner>(
          beam::SparkRunnerOptions{.parallelism = 1,
                                   .batch_interval_ms = 10,
                                   .fuse_stages = fuse});
    case RunnerKind::kApex:
      return std::make_unique<beam::ApexRunner>(
          beam::ApexRunnerOptions{.parallelism = 1, .fuse_stages = fuse});
  }
  throw std::invalid_argument("unknown runner");
}

/// The four query bodies. Sample uses a per-pipeline seeded decider so the
/// kept subset is a pure function of element order — a differential test
/// needs determinism, and async sinks must not perturb element order.
beam::PCollection<Payload> apply_query(
    const beam::PCollection<Payload>& values, workload::QueryId query) {
  using workload::QueryId;
  switch (query) {
    case QueryId::kIdentity:
      return values.apply(beam::MapElements<Payload, Payload>::via(
          [](const Payload& line) { return line; }, "Identity"));
    case QueryId::kSample:
      return values.apply(beam::Filter<Payload>::by(
          [decider = workload::SampleDecider(7)](const Payload&) mutable {
            return decider.keep();
          },
          "Sample"));
    case QueryId::kProjection:
      return values.apply(beam::MapElements<Payload, Payload>::via(
          [](const Payload& line) {
            return workload::projection_payload(line);
          },
          "Projection"));
    case QueryId::kGrep:
      return values.apply(beam::Filter<Payload>::by(
          [](const Payload& line) {
            return workload::grep_matches(line.view());
          },
          "Grep"));
  }
  throw std::invalid_argument("unknown query");
}

/// Runs `query` on `kind`; `async` goes on the writer's KafkaWriteConfig,
/// `fuse` on the runner options — the two routes production uses.
std::vector<std::string> run_query_with(RunnerKind kind, bool async,
                                        bool fuse, workload::QueryId query) {
  Broker broker;
  load_topic(broker, "in", 400);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  beam::Pipeline pipeline;
  auto values =
      pipeline
          .apply(beam::KafkaIO::read(broker,
                                     beam::KafkaReadConfig{.topic = "in"}))
          .apply(beam::KafkaIO::without_metadata())
          .apply(beam::Values<Payload>::create<Payload>());
  apply_query(values, query)
      .apply(beam::KafkaIO::write(
          broker, beam::KafkaWriteConfig{.topic = "out", .async = async}));
  auto runner = make_runner(kind, fuse);
  auto result = pipeline.run(*runner);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return read_topic_sorted(broker, "out");
}

class AsyncDifferentialTest
    : public ::testing::TestWithParam<workload::QueryId> {};

TEST_P(AsyncDifferentialTest, FusedAsyncMatchesDirectOnEveryRunner) {
  const workload::QueryId query = GetParam();
  const auto reference = run_query_with(RunnerKind::kDirect, /*async=*/false,
                                        /*fuse=*/false, query);
  ASSERT_FALSE(reference.empty() && query != workload::QueryId::kGrep);
  for (const RunnerKind kind :
       {RunnerKind::kFlink, RunnerKind::kSpark, RunnerKind::kApex}) {
    const auto async_only =
        run_query_with(kind, /*async=*/true, /*fuse=*/false, query);
    const auto fused_async =
        run_query_with(kind, /*async=*/true, /*fuse=*/true, query);
    EXPECT_EQ(async_only, reference) << "async diverged from DirectRunner";
    EXPECT_EQ(fused_async, reference)
        << "fused+async diverged from DirectRunner";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, AsyncDifferentialTest,
    ::testing::Values(workload::QueryId::kIdentity, workload::QueryId::kSample,
                      workload::QueryId::kProjection,
                      workload::QueryId::kGrep),
    [](const auto& info) { return workload::query_info(info.param).name; });

// --- production query path (ctx.async_sinks through every engine) ------------

/// Batches the async sender has dispatched so far, process-wide. Only the
/// async producer records kafka.producer.queue_wait_us, so a run that
/// leaves this flat wrote through synchronous producers only.
std::uint64_t async_batches_dispatched() {
  const auto snapshot = runtime::MetricsRegistry::global().snapshot();
  const auto it = snapshot.histograms.find("kafka.producer.queue_wait_us");
  return it == snapshot.histograms.end() ? 0 : it->second.count;
}

TEST(AsyncProductionPathTest, AsyncSinksFlagPreservesQueryOutput) {
  // The deterministic production queries (Sample excluded: its thread-local
  // sampling is seeded per worker thread) through the real factory, async
  // vs sync, native and Beam, per engine. The flag must also reach every
  // sink: async runs dispatch through the background sender, sync runs
  // never do.
  for (const auto query :
       {workload::QueryId::kIdentity, workload::QueryId::kProjection,
        workload::QueryId::kGrep}) {
    for (const auto engine :
         {queries::Engine::kFlink, queries::Engine::kSpark,
          queries::Engine::kApex}) {
      for (const auto sdk : {queries::Sdk::kNative, queries::Sdk::kBeam}) {
        const std::string setup = std::string(queries::engine_name(engine)) +
                                  "/" + queries::sdk_name(sdk) + "/" +
                                  workload::query_info(query).name;
        std::vector<std::vector<std::string>> outputs;
        for (const bool async : {false, true}) {
          Broker broker;
          load_topic(broker, "in", 300);
          broker.create_topic("out", kafka::TopicConfig{.partitions = 1})
              .expect_ok();
          queries::QueryContext ctx;
          ctx.broker = &broker;
          ctx.input_topic = "in";
          ctx.output_topic = "out";
          ctx.async_sinks = async;
          const std::uint64_t before = async_batches_dispatched();
          const Status status = queries::run_query(engine, sdk, query, ctx);
          ASSERT_TRUE(status.is_ok()) << status.to_string();
          const std::uint64_t dispatched = async_batches_dispatched() - before;
          if (async) {
            EXPECT_GT(dispatched, 0u) << setup << ": async sink stayed sync";
          } else {
            EXPECT_EQ(dispatched, 0u) << setup << ": sync sink went async";
          }
          outputs.push_back(read_topic_sorted(broker, "out"));
        }
        EXPECT_EQ(outputs[1], outputs[0])
            << setup << ": async output diverged from sync";
      }
    }
  }
}

TEST(AsyncProductionPathTest, OutputUnchangedThroughSeededBrokerOutage) {
  // A brief outage on the output topic mid-run: every engine's async sink
  // must ride it out via the sender's retry loop — same multiset as the
  // undisturbed sync run, no loss, no duplicates.
  auto& injector = FaultInjector::instance();
  for (const auto engine :
       {queries::Engine::kFlink, queries::Engine::kSpark,
        queries::Engine::kApex}) {
    for (const auto sdk : {queries::Sdk::kNative, queries::Sdk::kBeam}) {
      SCOPED_TRACE(std::string(queries::engine_name(engine)) + "/" +
                   queries::sdk_name(sdk));
      std::vector<std::vector<std::string>> outputs;
      for (const bool chaos : {false, true}) {
        Broker broker;
        load_topic(broker, "in", 300);
        broker.create_topic("out", kafka::TopicConfig{.partitions = 1})
            .expect_ok();
        queries::QueryContext ctx;
        ctx.broker = &broker;
        ctx.input_topic = "in";
        ctx.output_topic = "out";
        ctx.async_sinks = true;
        if (chaos) {
          injector.arm(
              17, {FaultRule{.point = FaultPoint::kBrokerUnavailable,
                             .site = "out",
                             .after_hits = 1,
                             .times = 1,
                             .param_us = 1'500}});
        }
        const Status status = queries::run_query(
            engine, sdk, workload::QueryId::kIdentity, ctx);
        if (chaos) injector.disarm();
        ASSERT_TRUE(status.is_ok()) << status.to_string();
        outputs.push_back(read_topic_sorted(broker, "out"));
      }
      EXPECT_EQ(outputs[1], outputs[0])
          << "output changed under an injected broker outage";
    }
  }
}

TEST(AsyncProductionPathTest, FlinkTransactionalExactlyOnceSurvivesAsync) {
  // PR 4's exactly-once contract with async sinks on: a seeded source kill
  // plus checkpointed recovery must still deliver each record exactly once
  // — the barrier (and close) drain the async pipeline before offsets
  // commit, so the epoch-buffering logic is unchanged.
  auto& injector = FaultInjector::instance();
  std::vector<std::vector<std::string>> outputs;
  for (const bool chaos : {false, true}) {
    Broker broker;
    // More records than the source's max_poll_records (1000), so the run
    // takes several polls and the kill below can land mid-job.
    load_topic(broker, "in", 1500);
    broker.create_topic("out", kafka::TopicConfig{.partitions = 1})
        .expect_ok();
    queries::QueryContext ctx;
    ctx.broker = &broker;
    ctx.input_topic = "in";
    ctx.output_topic = "out";
    ctx.async_sinks = true;
    ctx.recovery.enabled = true;
    ctx.recovery.max_restarts = 4;
    ctx.recovery.exactly_once = true;
    ctx.recovery.backoff_seed = 3;
    if (chaos) {
      // The kill lands on the source's second loop iteration — after the
      // first epoch's records were emitted, before the job completes.
      injector.arm(3, {FaultRule{.point = FaultPoint::kOperatorThrow,
                                 .site = "flink.source.",
                                 .after_hits = 1,
                                 .times = 1}});
    }
    const Status status = queries::run_query(
        queries::Engine::kFlink, queries::Sdk::kNative,
        workload::QueryId::kIdentity, ctx);
    const std::uint64_t injected = injector.injected_count();
    if (chaos) injector.disarm();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    if (chaos) {
      EXPECT_GT(injected, 0u) << "the kill never struck";
    }
    outputs.push_back(read_topic_sorted(broker, "out"));
  }
  EXPECT_EQ(outputs[1], outputs[0])
      << "recovered async run is not exactly-once";
}

}  // namespace
}  // namespace dsps
