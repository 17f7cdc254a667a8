// Open-loop robustness and overload protection.
//
// Units: PartitionLog size retention with the out-of-range consumer
// reset; the Queue::push_batch close-race regression. End to end: all
// 4 queries x 3 engines x {native, Beam} run open loop from a paced
// generator — every offered record is admitted and output multisets must
// exactly equal a DirectRunner run over the same input. All six setups also
// finish open-loop when a reader owns no input partition, and the Spark and
// Apex setups deliver a trickle of records before the input is sealed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/direct_runner.hpp"
#include "common/clock.hpp"
#include "common/queue.hpp"
#include "harness/loadgen.hpp"
#include "kafka/broker.hpp"
#include "kafka/consumer.hpp"
#include "kafka/partition_log.hpp"
#include "queries/query_factory.hpp"
#include "runtime/metrics.hpp"
#include "workload/data_sender.hpp"
#include "workload/streambench.hpp"

namespace dsps {
namespace {

using queries::Engine;
using queries::Sdk;
using workload::QueryId;

// --- retention ---------------------------------------------------------------

TEST(Retention, SizeBoundTrimsHeadAndTracksBytes) {
  kafka::Broker broker;
  broker.create_topic("ret", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.set_retention("ret", kafka::RetentionConfig{.max_bytes = 4'096})
      .expect_ok();
  const std::string payload(128, 'x');
  for (int i = 0; i < 200; ++i) {
    broker.append({"ret", 0}, kafka::ProducerRecord{.value = payload}, false)
        .status()
        .expect_ok();
  }
  // 200 * 128 = 25600 bytes appended; retention must hold it near the cap.
  EXPECT_LE(broker.retained_bytes("ret"), 4'096);
  EXPECT_GT(broker.retained_bytes("ret"), 0);
  // End offset is untouched by trimming; only the log start moved up.
  EXPECT_EQ(broker.end_offset({"ret", 0}).value(), 200);
}

TEST(Retention, ConsumerBehindTrimmedHeadSeesOutOfRange) {
  kafka::Broker broker;
  broker.create_topic("ret", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.set_retention("ret", kafka::RetentionConfig{.max_bytes = 2'048})
      .expect_ok();
  const std::string payload(128, 'y');
  for (int i = 0; i < 100; ++i) {
    broker.append({"ret", 0}, kafka::ProducerRecord{.value = payload}, false)
        .status()
        .expect_ok();
  }
  const auto before = runtime::MetricsRegistry::global().snapshot();
  kafka::Consumer consumer(broker, kafka::ConsumerConfig{});
  // No group: the read starts at offset 0, which is long gone.
  consumer.subscribe("ret", /*bounded=*/false).expect_ok();
  kafka::FetchBatch batch;
  const kafka::FetchState state = consumer.poll_batch(0, batch);
  EXPECT_EQ(state, kafka::FetchState::kOutOfRange);
  ASSERT_FALSE(batch.empty());
  // The fetch was clamped forward to the retained window's start.
  EXPECT_GT(batch.records.front().offset, 0);
  const auto after = runtime::MetricsRegistry::global().snapshot();
  EXPECT_GT(after.counter("kafka.consumer.out_of_range_resets"),
            before.counter("kafka.consumer.out_of_range_resets"));
  // Subsequent polls continue from the reset position without re-tripping.
  std::int64_t last = batch.records.back().offset;
  while (true) {
    const kafka::FetchState next = consumer.poll_batch(0, batch);
    if (batch.empty()) break;
    EXPECT_EQ(batch.records.front().offset, last + 1);
    last = batch.records.back().offset;
    if (next == kafka::FetchState::kClosed) break;
  }
  EXPECT_EQ(last, 99);
}

// --- queue close race --------------------------------------------------------

TEST(Queue, PushBatchReturnsPartialCountOnClose) {
  BoundedQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(queue.push(i));
  std::atomic<std::size_t> pushed{~std::size_t{0}};
  std::thread pusher([&] {
    std::vector<int> batch{10, 11, 12, 13, 14, 15, 16, 17};
    // Queue full, nobody pops: this blocks until close(), which must
    // release it promptly with the partial count instead of hanging.
    pushed.store(queue.push_batch(std::move(batch)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch watch;
  queue.close();
  pusher.join();
  EXPECT_LT(watch.elapsed_ms(), 1'000.0);
  EXPECT_LT(pushed.load(), 8u);  // the tail of the batch was dropped
}

TEST(Queue, SpscPushBatchReturnsPartialCountOnClose) {
  SpscRingQueue<int> queue(4);
  std::vector<int> fill{0, 1, 2, 3};
  (void)queue.push_batch(std::move(fill));
  std::atomic<std::size_t> pushed{~std::size_t{0}};
  std::thread pusher([&] {
    std::vector<int> batch{10, 11, 12, 13, 14, 15};
    pushed.store(queue.push_batch(std::move(batch)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch watch;
  queue.close();
  pusher.join();
  EXPECT_LT(watch.elapsed_ms(), 1'000.0);
  EXPECT_LT(pushed.load(), 6u);
}

// --- open-loop differential -------------------------------------------------

constexpr const char* kIn = "bp-in";
constexpr const char* kOut = "bp-out";
constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kRecords = 3'000;

std::vector<std::string> sorted_output(kafka::Broker& broker,
                                       const std::string& topic) {
  std::vector<kafka::StoredRecord> stored;
  broker.fetch({topic, 0}, 0, 10'000'000, stored).status().expect_ok();
  std::vector<std::string> values;
  values.reserve(stored.size());
  for (const auto& record : stored) values.push_back(record.value.str());
  std::sort(values.begin(), values.end());
  return values;
}

struct OpenLoopRun {
  std::vector<std::string> input;   // admitted records, in append order
  std::vector<std::string> output;  // sorted
  harness::LoadGenReport report;
};

/// One open-loop run of (engine, sdk, query) from the paced generator.
OpenLoopRun run_open_loop(Engine engine, Sdk sdk, QueryId query) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, kIn).expect_ok();
  workload::create_benchmark_topic(broker, kOut).expect_ok();

  harness::LoadGenConfig gen_config;
  gen_config.topic = kIn;
  gen_config.target_rate = 60'000.0;
  gen_config.records = kRecords;
  gen_config.seed = kSeed;
  harness::LoadGenerator generator(broker, gen_config);

  queries::QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = kIn;
  ctx.output_topic = kOut;
  ctx.seed = kSeed;
  ctx.open_loop = true;

  Status engine_status = Status::ok();
  std::thread engine_thread([&] {
    engine_status = queries::run_query(engine, sdk, query, ctx);
  });
  OpenLoopRun run;
  auto report = generator.run();
  report.status().expect_ok();
  run.report = report.value();
  broker.seal_topic(kIn).expect_ok();
  engine_thread.join();
  EXPECT_TRUE(engine_status.is_ok()) << engine_status.message();

  std::vector<kafka::StoredRecord> stored;
  broker.fetch({kIn, 0}, 0, 10'000'000, stored).status().expect_ok();
  run.input.reserve(stored.size());
  for (const auto& record : stored) run.input.push_back(record.value.str());
  run.output = sorted_output(broker, kOut);
  return run;
}

/// The reference: the same input replayed through the query on the
/// DirectRunner (closed loop).
std::vector<std::string> direct_reference(
    const std::vector<std::string>& input, QueryId query) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, kIn).expect_ok();
  workload::create_benchmark_topic(broker, kOut).expect_ok();
  std::vector<kafka::ProducerRecord> batch;
  batch.reserve(input.size());
  for (const auto& line : input) {
    batch.push_back(kafka::ProducerRecord{.value = line});
  }
  broker.append_batch({kIn, 0}, batch, false).status().expect_ok();

  beam::Pipeline pipeline;
  auto values =
      pipeline
          .apply(beam::KafkaIO::read(broker,
                                     beam::KafkaReadConfig{.topic = kIn}))
          .apply(beam::KafkaIO::without_metadata())
          .apply(beam::Values<runtime::Payload>::create<runtime::Payload>());
  beam::PCollection<runtime::Payload> out = values;
  switch (query) {
    case QueryId::kIdentity:
      break;
    case QueryId::kSample:
      out = values.apply(beam::Filter<runtime::Payload>::by(
          [](const runtime::Payload& line) {
            return workload::sample_keep(line.view(), kSeed);
          },
          "Sample"));
      break;
    case QueryId::kProjection:
      out = values.apply(
          beam::MapElements<runtime::Payload, runtime::Payload>::via(
              [](const runtime::Payload& line) {
                return workload::projection_payload(line);
              },
              "Projection"));
      break;
    case QueryId::kGrep:
      out = values.apply(beam::Filter<runtime::Payload>::by(
          [](const runtime::Payload& line) {
            return workload::grep_matches(line.view());
          },
          "Grep"));
      break;
  }
  out.apply(
      beam::KafkaIO::write(broker, beam::KafkaWriteConfig{.topic = kOut}));
  beam::DirectRunner runner;
  pipeline.run(runner).status().expect_ok();
  return sorted_output(broker, kOut);
}

TEST(OpenLoopDifferential, AllSetupsMatchDirectRunner) {
  for (const auto engine : {Engine::kFlink, Engine::kSpark, Engine::kApex}) {
    for (const auto sdk : {Sdk::kNative, Sdk::kBeam}) {
      for (const auto query : {QueryId::kIdentity, QueryId::kSample,
                               QueryId::kProjection, QueryId::kGrep}) {
        SCOPED_TRACE(std::string(queries::engine_name(engine)) + "/" +
                     queries::sdk_name(sdk) + "/" +
                     workload::query_info(query).name);
        const OpenLoopRun run = run_open_loop(engine, sdk, query);
        // Every offered record was admitted, none dropped.
        EXPECT_EQ(run.report.admitted, run.report.offered);
        ASSERT_EQ(run.input.size(), kRecords);
        const std::vector<std::string> reference =
            direct_reference(run.input, query);
        EXPECT_EQ(run.output, reference);
      }
    }
  }
}

/// Runs Identity on (engine, sdk) over `ctx` in its own thread while
/// `during` runs on the caller's, then waits for the run. Each run has its
/// own deadline; a hang fails in seconds, then the broker shutdown unblocks
/// the stuck reader so the test can still join it. Returns the run's
/// status, or nothing when it missed the deadline.
std::optional<Status> run_identity_within_deadline(
    Engine engine, Sdk sdk, const queries::QueryContext& ctx,
    const std::function<void()>& during) {
  constexpr auto kDeadline = std::chrono::seconds(10);
  std::promise<Status> done;
  std::future<Status> status = done.get_future();
  std::thread engine_thread([&] {
    done.set_value(queries::run_query(engine, sdk, QueryId::kIdentity, ctx));
  });
  during();
  const bool finished =
      status.wait_for(kDeadline) == std::future_status::ready;
  if (!finished) ctx.broker->begin_shutdown();
  engine_thread.join();
  if (!finished) return std::nullopt;
  return status.get();
}

// --- surplus shards in open loop ---------------------------------------------

/// Parallelism 2 over a 1-partition input topic sealed before the run: one
/// reader per engine owns no partition. Its empty slice must end at the seal
/// like any other, so every setup finishes with output == input.
TEST(OpenLoopSurplusShard, AllSetupsFinishOverSealedInput) {
  constexpr int kLines = 500;
  for (const auto engine : {Engine::kFlink, Engine::kSpark, Engine::kApex}) {
    for (const auto sdk : {Sdk::kNative, Sdk::kBeam}) {
      SCOPED_TRACE(std::string(queries::engine_name(engine)) + "/" +
                   queries::sdk_name(sdk));
      kafka::Broker broker;
      workload::create_benchmark_topic(broker, kIn).expect_ok();
      workload::create_benchmark_topic(broker, kOut).expect_ok();
      std::vector<kafka::ProducerRecord> batch;
      std::vector<std::string> input;
      for (int i = 0; i < kLines; ++i) {
        input.push_back("line-" + std::to_string(i));
        batch.push_back(kafka::ProducerRecord{.value = input.back()});
      }
      broker.append_batch({kIn, 0}, batch, false).status().expect_ok();
      broker.seal_topic(kIn).expect_ok();
      std::sort(input.begin(), input.end());

      queries::QueryContext ctx;
      ctx.broker = &broker;
      ctx.input_topic = kIn;
      ctx.output_topic = kOut;
      ctx.parallelism = 2;
      ctx.open_loop = true;
      const std::optional<Status> engine_status =
          run_identity_within_deadline(engine, sdk, ctx, [] {});
      if (!engine_status) {
        ADD_FAILURE() << "run did not finish within the deadline";
        continue;
      }
      EXPECT_TRUE(engine_status->is_ok()) << engine_status->message();
      EXPECT_EQ(sorted_output(broker, kOut), input);
    }
  }
}

// --- trickled input in open loop -------------------------------------------

/// A few records appended to an open-loop input that stays unsealed must
/// reach the output while the input is idle, not only at the seal: an
/// input that waits to fill its window or batch before it ends strands them.
/// Flink-sim is left out: its Router buffer timeout and the sink producer's
/// linger are only checked on the next emit/send, so an idle source strands
/// what they hold until the seal.
TEST(OpenLoopTrickle, SparkAndApexDeliverBeforeTheSeal) {
  constexpr int kLines = 10;
  constexpr auto kDelivery = std::chrono::seconds(2);
  for (const auto engine : {Engine::kSpark, Engine::kApex}) {
    for (const auto sdk : {Sdk::kNative, Sdk::kBeam}) {
      SCOPED_TRACE(std::string(queries::engine_name(engine)) + "/" +
                   queries::sdk_name(sdk));
      kafka::Broker broker;
      workload::create_benchmark_topic(broker, kIn).expect_ok();
      workload::create_benchmark_topic(broker, kOut).expect_ok();

      queries::QueryContext ctx;
      ctx.broker = &broker;
      ctx.input_topic = kIn;
      ctx.output_topic = kOut;
      ctx.open_loop = true;
      std::vector<std::string> input;
      const std::optional<Status> engine_status =
          run_identity_within_deadline(engine, sdk, ctx, [&] {
            for (int i = 0; i < kLines; ++i) {
              input.push_back("trickle-" + std::to_string(i));
              broker
                  .append_batch({kIn, 0},
                                {kafka::ProducerRecord{.value = input.back()}},
                                false)
                  .status()
                  .expect_ok();
            }
            const auto deadline = std::chrono::steady_clock::now() + kDelivery;
            std::int64_t delivered = 0;
            while (std::chrono::steady_clock::now() < deadline) {
              delivered = broker.end_offset({kOut, 0}).value();
              if (delivered >= kLines) break;
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            EXPECT_EQ(delivered, kLines) << "records delivered before the seal";
            broker.seal_topic(kIn).expect_ok();
          });
      if (!engine_status) {
        ADD_FAILURE() << "run did not finish within the deadline";
        continue;
      }
      EXPECT_TRUE(engine_status->is_ok()) << engine_status->message();
      std::sort(input.begin(), input.end());
      EXPECT_EQ(sorted_output(broker, kOut), input);
    }
  }
}

}  // namespace
}  // namespace dsps
