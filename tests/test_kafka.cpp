// Unit, integration, and property tests for MiniKafka.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "kafka/broker.hpp"
#include "kafka/consumer.hpp"
#include "kafka/producer.hpp"
#include "runtime/fault.hpp"

namespace dsps::kafka {
namespace {

TopicConfig single_partition() {
  return TopicConfig{.partitions = 1,
                     .replication_factor = 1,
                     .timestamp_type = TimestampType::kLogAppendTime};
}

// --- topic management ---------------------------------------------------------

TEST(BrokerTest, CreateDescribeDelete) {
  Broker broker;
  EXPECT_TRUE(broker.create_topic("t", single_partition()).is_ok());
  EXPECT_TRUE(broker.topic_exists("t"));
  auto metadata = broker.describe_topic("t");
  ASSERT_TRUE(metadata.is_ok());
  EXPECT_EQ(metadata.value().config.partitions, 1);
  EXPECT_TRUE(broker.delete_topic("t").is_ok());
  EXPECT_FALSE(broker.topic_exists("t"));
}

TEST(BrokerTest, DuplicateCreateFails) {
  Broker broker;
  EXPECT_TRUE(broker.create_topic("t", single_partition()).is_ok());
  EXPECT_EQ(broker.create_topic("t", single_partition()).code(),
            StatusCode::kAlreadyExists);
}

TEST(BrokerTest, InvalidConfigsRejected) {
  Broker broker;
  EXPECT_EQ(broker.create_topic("a", {.partitions = 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      broker.create_topic("b", {.partitions = 1, .replication_factor = 0})
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(BrokerTest, UnknownTopicOperationsFail) {
  Broker broker;
  EXPECT_EQ(broker.delete_topic("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(broker.describe_topic("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(broker.end_offset({"nope", 0}).status().code(),
            StatusCode::kNotFound);
  std::vector<StoredRecord> out;
  EXPECT_EQ(broker.fetch({"nope", 0}, 0, 10, out).status().code(),
            StatusCode::kNotFound);
}

TEST(BrokerTest, PartitionOutOfRangeRejected) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 2}).expect_ok();
  EXPECT_EQ(
      broker.append({"t", 2}, ProducerRecord{}, false).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      broker.append({"t", -1}, ProducerRecord{}, false).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(BrokerTest, ListTopics) {
  Broker broker;
  broker.create_topic("a", single_partition()).expect_ok();
  broker.create_topic("b", single_partition()).expect_ok();
  EXPECT_EQ(broker.list_topics(), (std::vector<std::string>{"a", "b"}));
}

// --- append / fetch ------------------------------------------------------------

TEST(BrokerTest, OffsetsAreDenseAndOrdered) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  for (int i = 0; i < 100; ++i) {
    auto offset = broker.append(
        {"t", 0}, ProducerRecord{.value = std::to_string(i)}, false);
    ASSERT_TRUE(offset.is_ok());
    EXPECT_EQ(offset.value(), i);
  }
  std::vector<StoredRecord> out;
  const auto n = broker.fetch({"t", 0}, 0, 1000, out);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].offset, i);
    EXPECT_EQ(out[static_cast<std::size_t>(i)].value, std::to_string(i));
  }
}

TEST(BrokerTest, LogAppendTimeIsMonotonicWithinPartition) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  for (int i = 0; i < 50; ++i) {
    broker.append({"t", 0}, ProducerRecord{.value = "x"}, false)
        .status()
        .expect_ok();
  }
  std::vector<StoredRecord> out;
  broker.fetch({"t", 0}, 0, 100, out).status().expect_ok();
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].timestamp, out[i].timestamp);
  }
}

TEST(BrokerTest, AppendBatchStampsOneTimestampPerBatch) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  std::vector<ProducerRecord> batch(10, ProducerRecord{.value = "v"});
  broker.append_batch({"t", 0}, batch, false).status().expect_ok();
  std::vector<StoredRecord> out;
  broker.fetch({"t", 0}, 0, 100, out).status().expect_ok();
  ASSERT_EQ(out.size(), 10u);
  for (const auto& record : out) {
    EXPECT_EQ(record.timestamp, out.front().timestamp);
  }
}

TEST(BrokerTest, FetchFromMiddleOffset) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  for (int i = 0; i < 10; ++i) {
    broker.append({"t", 0}, ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
  std::vector<StoredRecord> out;
  const auto n = broker.fetch({"t", 0}, 7, 100, out);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_EQ(out[0].value, "7");
}

TEST(BrokerTest, FetchBlockingWakesOnAppend) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  std::vector<StoredRecord> out;
  std::thread appender([&broker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    broker.append({"t", 0}, ProducerRecord{.value = "late"}, false)
        .status()
        .expect_ok();
  });
  const auto n = broker.fetch_blocking({"t", 0}, 0, 10, 2000, out);
  appender.join();
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 1u);
  EXPECT_EQ(out[0].value, "late");
}

TEST(BrokerTest, FetchBlockingTimesOut) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  std::vector<StoredRecord> out;
  const auto n = broker.fetch_blocking({"t", 0}, 0, 10, 30, out);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST(BrokerTest, PartitionInfoTracksFirstAndLastTimestamps) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  auto info = broker.partition_info({"t", 0});
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().record_count, 0);
  broker.append({"t", 0}, ProducerRecord{.value = "a"}, false)
      .status()
      .expect_ok();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  broker.append({"t", 0}, ProducerRecord{.value = "b"}, false)
      .status()
      .expect_ok();
  info = broker.partition_info({"t", 0});
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().record_count, 2);
  EXPECT_LT(info.value().first_timestamp, info.value().last_timestamp);
}

// Property: concurrent appends from many threads keep the log dense.
TEST(BrokerTest, ConcurrentAppendsProduceDenseOffsets) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  constexpr int kThreads = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&broker] {
      for (int i = 0; i < kEach; ++i) {
        broker.append({"t", 0}, ProducerRecord{.value = "v"}, false)
            .status()
            .expect_ok();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(broker.end_offset({"t", 0}).value(), kThreads * kEach);
}

// --- segmented log ---------------------------------------------------------------

// Appends `count` records valued "0", "1", ... in producer-sized batches.
void append_numbered(Broker& broker, const std::string& topic,
                     std::size_t count) {
  std::vector<ProducerRecord> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(ProducerRecord{.value = std::to_string(i)});
    if (batch.size() == 500 || i + 1 == count) {
      broker.append_batch({topic, 0}, batch, false).status().expect_ok();
      batch.clear();
    }
  }
}

TEST(SegmentLogTest, FetchAcrossSegmentBoundary) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, "t", kSegmentRecords + 100);
  const auto from = static_cast<std::int64_t>(kSegmentRecords) - 50;
  std::vector<StoredRecord> out;
  const auto n = broker.fetch({"t", 0}, from, 100, out);
  ASSERT_TRUE(n.is_ok());
  ASSERT_EQ(n.value(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::int64_t offset = from + static_cast<std::int64_t>(i);
    EXPECT_EQ(out[i].offset, offset);
    EXPECT_EQ(out[i].value, std::to_string(offset));
  }
}

TEST(SegmentLogTest, RetentionTrimAcrossSegmentsKeepsExactBounds) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  const std::size_t count = 3 * kSegmentRecords + 5;
  const std::string value(16, 'v');
  broker
      .append_batch({"t", 0},
                    std::vector<ProducerRecord>(count,
                                                ProducerRecord{.value = value}),
                    false)
      .status()
      .expect_ok();
  // Over the bound, a trim runs down to 80% of it: with 16-byte records
  // that keeps exactly `kept` records and frees two whole segments.
  const std::int64_t max_bytes = 16 * static_cast<std::int64_t>(kSegmentRecords);
  const std::int64_t kept = max_bytes * 4 / 5 / 16;
  const std::int64_t log_start = static_cast<std::int64_t>(count) - kept;
  broker.set_retention("t", RetentionConfig{.max_bytes = max_bytes})
      .expect_ok();

  const PartitionInfo info = broker.partition_info({"t", 0}).value();
  EXPECT_EQ(info.log_start_offset, log_start);
  EXPECT_EQ(info.log_end_offset, static_cast<std::int64_t>(count));
  EXPECT_EQ(info.record_count, kept);
  EXPECT_EQ(broker.retained_bytes("t"), kept * 16);
  EXPECT_EQ(broker.segment_pool().idle_segments(),
            static_cast<std::size_t>(log_start) / kSegmentRecords);
  ASSERT_GE(broker.segment_pool().idle_segments(), 2u);

  std::vector<StoredRecord> out;
  broker.fetch({"t", 0}, 0, count, out).status().expect_ok();
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kept));
  EXPECT_EQ(out.front().offset, log_start);
  EXPECT_EQ(out.back().offset, static_cast<std::int64_t>(count) - 1);
}

TEST(SegmentLogTest, DeleteAndTrimDropPayloadReferences) {
  Broker broker;
  const Payload held(std::string(64, 'h'));
  const Payload other(std::string(64, 'o'));
  const long held_refs = held.owner().use_count();
  const long other_refs = other.owner().use_count();

  broker.create_topic("deleted", single_partition()).expect_ok();
  broker
      .append_batch({"deleted", 0},
                    std::vector<ProducerRecord>(kSegmentRecords + 10,
                                                ProducerRecord{.value = held}),
                    false)
      .status()
      .expect_ok();
  EXPECT_GT(held.owner().use_count(), held_refs);
  broker.delete_topic("deleted").expect_ok();
  EXPECT_EQ(held.owner().use_count(), held_refs);

  // 600 `held` records, then 600 `other` ones; the trim keeps the newest
  // 560, so every `held` record goes while its segment stays in use.
  broker.create_topic("trimmed", single_partition()).expect_ok();
  for (const Payload& value : {held, other}) {
    broker
        .append_batch({"trimmed", 0},
                      std::vector<ProducerRecord>(
                          600, ProducerRecord{.value = value}),
                      false)
        .status()
        .expect_ok();
  }
  broker.set_retention("trimmed", RetentionConfig{.max_bytes = 64 * 700})
      .expect_ok();
  EXPECT_EQ(broker.partition_info({"trimmed", 0}).value().record_count, 560);
  EXPECT_EQ(held.owner().use_count(), held_refs);
  EXPECT_EQ(other.owner().use_count(), other_refs + 560);
}

TEST(SegmentLogTest, TopicCreatedAfterDeleteReusesPooledSegments) {
  Broker broker;
  EXPECT_EQ(broker.segment_pool().idle_segments(), 0u);
  broker.create_topic("first", single_partition()).expect_ok();
  append_numbered(broker, "first", 2 * kSegmentRecords + 10);  // 3 segments
  EXPECT_EQ(broker.segment_pool().idle_segments(), 0u);
  broker.delete_topic("first").expect_ok();
  EXPECT_EQ(broker.segment_pool().idle_segments(), 3u);

  broker.create_topic("second", single_partition()).expect_ok();
  append_numbered(broker, "second", 2 * kSegmentRecords);
  EXPECT_EQ(broker.segment_pool().idle_segments(), 1u);
  std::vector<StoredRecord> out;
  broker.fetch({"second", 0}, 0, 2 * kSegmentRecords, out)
      .status()
      .expect_ok();
  ASSERT_EQ(out.size(), 2 * kSegmentRecords);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].offset, static_cast<std::int64_t>(i));
    EXPECT_EQ(out[i].value, std::to_string(i));
  }
}

// --- replication --------------------------------------------------------------

TEST(BrokerTest, ReplicationFactorBookkept) {
  Broker broker;
  broker
      .create_topic("t", TopicConfig{.partitions = 2,
                                     .replication_factor = 3})
      .expect_ok();
  EXPECT_EQ(broker.describe_topic("t").value().config.replication_factor, 3);
  // acks=all appends land on all replicas; leader reads still work.
  broker.append({"t", 0}, ProducerRecord{.value = "v"}, true)
      .status()
      .expect_ok();
  EXPECT_EQ(broker.end_offset({"t", 0}).value(), 1);
}

// --- producer -------------------------------------------------------------------

TEST(ProducerTest, BatchingFlushesAtBatchSize) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  Producer producer(broker, ProducerConfig{.batch_size = 5, .linger_us = 0});
  for (int i = 0; i < 4; ++i) {
    producer.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
  }
  EXPECT_EQ(broker.end_offset({"t", 0}).value(), 0);  // still buffered
  producer.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
  EXPECT_EQ(broker.end_offset({"t", 0}).value(), 5);  // flushed
}

TEST(ProducerTest, FlushDrainsBuffer) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  Producer producer(broker,
                    ProducerConfig{.batch_size = 100, .linger_us = 0});
  producer.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
  producer.flush().expect_ok();
  EXPECT_EQ(broker.end_offset({"t", 0}).value(), 1);
}

TEST(ProducerTest, CloseFlushesAndRejectsFurtherSends) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  Producer producer(broker, ProducerConfig{.batch_size = 100});
  producer.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
  producer.close().expect_ok();
  EXPECT_EQ(broker.end_offset({"t", 0}).value(), 1);
  EXPECT_EQ(producer.send("t", 0, ProducerRecord{.value = "v"}).code(),
            StatusCode::kClosed);
}

TEST(ProducerTest, LingerForcesEarlyFlush) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  Producer producer(broker,
                    ProducerConfig{.batch_size = 1000, .linger_us = 1000});
  producer.send("t", 0, ProducerRecord{.value = "first"}).expect_ok();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  producer.send("t", 0, ProducerRecord{.value = "second"}).expect_ok();
  // The second send observed the 1ms linger expiry and flushed both.
  EXPECT_EQ(broker.end_offset({"t", 0}).value(), 2);
}

TEST(ProducerTest, DenseBatchShipsWithinOneStrideOfItsLinger) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  Producer producer(broker,
                    ProducerConfig{.batch_size = 1000, .linger_us = 1000});
  for (int i = 1; i <= 20; ++i) {
    producer.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // Past 16 buffered records the linger is read once per 16 records: the
  // expired batch waits for record 32 rather than shipping at record 21.
  for (int i = 21; i <= 31; ++i) {
    producer.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
    EXPECT_EQ(broker.end_offset({"t", 0}).value(), 0) << "record " << i;
  }
  producer.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
  EXPECT_EQ(broker.end_offset({"t", 0}).value(), 32);
}

TEST(ProducerTest, KeyHashPartitioning) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 4}).expect_ok();
  Producer producer(broker,
                    ProducerConfig{.partitioner = Partitioner::kKeyHash,
                                   .batch_size = 1,
                                   .linger_us = 0});
  for (int i = 0; i < 100; ++i) {
    producer
        .send("t", ProducerRecord{.key = Payload("key-" + std::to_string(i)),
                                  .value = "v"})
        .expect_ok();
  }
  producer.close().expect_ok();
  std::int64_t total = 0;
  for (int p = 0; p < 4; ++p) {
    const auto end = broker.end_offset({"t", p}).value();
    EXPECT_GT(end, 0);  // hash spread reached every partition
    total += end;
  }
  EXPECT_EQ(total, 100);
}

TEST(ProducerTest, UnknownTopicSendFails) {
  Broker broker;
  Producer producer(broker, ProducerConfig{.batch_size = 1});
  EXPECT_FALSE(producer.send("missing", 0, ProducerRecord{}).is_ok());
}

TEST(ProducerTest, SimulatedRttSlowsPerRecordSyncSends) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  broker.set_rtt_us(200);
  Producer per_record(broker,
                      ProducerConfig{.batch_size = 1, .linger_us = 0});
  Stopwatch watch;
  for (int i = 0; i < 50; ++i) {
    per_record.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
  }
  const double per_record_ms = watch.elapsed_ms();
  EXPECT_GE(per_record_ms, 9.0);  // 50 flushes x 200us

  Producer batched(broker,
                   ProducerConfig{.batch_size = 50, .linger_us = 0});
  watch.reset();
  for (int i = 0; i < 50; ++i) {
    batched.send("t", 0, ProducerRecord{.value = "v"}).expect_ok();
  }
  batched.flush().expect_ok();
  const double batched_ms = watch.elapsed_ms();
  EXPECT_LT(batched_ms, per_record_ms / 4.0);  // batching amortizes the RTT
}

// --- producer partitioners ----------------------------------------------------

TEST(PartitionerTest, RoundRobinSpreadsEvenly) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 4}).expect_ok();
  Producer producer(broker,
                    ProducerConfig{.partitioner = Partitioner::kRoundRobin,
                                   .batch_size = 1});
  for (int i = 0; i < 40; ++i) {
    producer.send("t", ProducerRecord{.value = "v"}).expect_ok();
  }
  producer.close().expect_ok();
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(broker.end_offset({"t", p}).value(), 10);
  }
}

TEST(PartitionerTest, KeyHashIsStablePerKey) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 4}).expect_ok();
  Producer producer(broker,
                    ProducerConfig{.partitioner = Partitioner::kKeyHash,
                                   .batch_size = 1});
  for (int i = 0; i < 30; ++i) {
    producer
        .send("t", ProducerRecord{.key = Payload("key-" + std::to_string(i % 3)),
                                  .value = std::to_string(i)})
        .expect_ok();
  }
  producer.close().expect_ok();
  // Each key's 10 records landed on a single partition.
  std::map<std::string, std::set<int>> key_partitions;
  for (int p = 0; p < 4; ++p) {
    std::vector<StoredRecord> records;
    broker.fetch({"t", p}, 0, 100, records).status().expect_ok();
    for (const auto& record : records) {
      key_partitions[record.key.str()].insert(p);
    }
  }
  EXPECT_EQ(key_partitions.size(), 3u);
  for (const auto& [key, where] : key_partitions) {
    EXPECT_EQ(where.size(), 1u) << key << " spread over partitions";
  }
}

TEST(PartitionerTest, KeylessKeyHashFallsBackToRoundRobin) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 4}).expect_ok();
  Producer producer(broker, ProducerConfig{.batch_size = 1});
  for (int i = 0; i < 8; ++i) {
    producer.send("t", ProducerRecord{.value = "v"}).expect_ok();
  }
  producer.close().expect_ok();
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(broker.end_offset({"t", p}).value(), 2);
  }
}

// --- consumer -------------------------------------------------------------------

/// Appends `count` records valued "0".."count-1" to partition `p` of "t".
void append_numbered(Broker& broker, int count, int p = 0) {
  for (int i = 0; i < count; ++i) {
    broker.append({"t", p}, ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
}

/// Drains a consumer until kClosed; returns the values in read order.
std::vector<std::string> drain_values(Consumer& consumer) {
  std::vector<std::string> seen;
  FetchBatch batch;
  FetchState state = FetchState::kOk;
  while (state != FetchState::kClosed) {
    state = consumer.poll_batch(0, batch);
    for (const auto& record : batch.records) {
      seen.push_back(record.value.str());
    }
  }
  return seen;
}

TEST(ConsumerTest, BoundedSubscribeReadsAllInOrder) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, 25);
  Consumer consumer(broker, ConsumerConfig{.max_poll_records = 10});
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  const std::vector<std::string> seen = drain_values(consumer);
  ASSERT_EQ(seen.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(ConsumerTest, PollBatchRespectsMaxPollRecords) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, 30);
  Consumer consumer(broker, ConsumerConfig{.max_poll_records = 7});
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  FetchBatch batch;
  EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kOk);
  EXPECT_EQ(batch.size(), 7u);
}

TEST(ConsumerTest, PollBatchAdvancesOffsetsPerBatch) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, 25);
  Consumer consumer(broker, ConsumerConfig{.max_poll_records = 10});
  consumer.subscribe("t", /*bounded=*/false).expect_ok();

  std::int64_t expected_offset = 0;
  std::vector<std::string> seen;
  FetchBatch batch;
  while (expected_offset < 25) {
    EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kOk);
    ASSERT_FALSE(batch.empty());
    EXPECT_EQ(batch.tp, (TopicPartition{"t", 0}));
    EXPECT_EQ(batch.base_offset, expected_offset);
    for (std::size_t i = 0; i < batch.records.size(); ++i) {
      // Offsets inside the batch are dense from the base offset.
      EXPECT_EQ(batch.records[i].offset,
                batch.base_offset + static_cast<std::int64_t>(i));
      seen.push_back(batch.records[i].value.str());
    }
    expected_offset += static_cast<std::int64_t>(batch.size());
    EXPECT_EQ(consumer.positions().front().second, expected_offset);
  }
  ASSERT_EQ(seen.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], std::to_string(i));
  }
  // Drained but unsealed: a further non-blocking poll returns an empty
  // batch and the read stays open.
  EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kOk);
  EXPECT_TRUE(batch.empty());
}

TEST(ConsumerTest, PollBatchRoundRobinsPartitions) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 3}).expect_ok();
  for (int p = 0; p < 3; ++p) append_numbered(broker, 10, p);
  Consumer consumer(broker, ConsumerConfig{.max_poll_records = 4});
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  std::size_t total = 0;
  std::vector<int> partition_order;
  FetchBatch batch;
  FetchState state = FetchState::kOk;
  while (state != FetchState::kClosed) {
    state = consumer.poll_batch(0, batch);
    if (batch.empty()) continue;
    partition_order.push_back(batch.tp.partition);
    // Each batch is contiguous records of a single partition.
    for (const auto& record : batch.records) {
      EXPECT_EQ(record.offset - batch.base_offset,
                &record - batch.records.data());
    }
    total += batch.size();
  }
  EXPECT_EQ(total, 30u);
  // Round-robin: consecutive batches come from consecutive partitions.
  ASSERT_GE(partition_order.size(), 3u);
  EXPECT_EQ(partition_order[0], 0);
  EXPECT_EQ(partition_order[1], 1);
  EXPECT_EQ(partition_order[2], 2);
}

TEST(ConsumerTest, GroupOffsetsResumeAfterRestart) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, 10);
  {
    Consumer consumer(broker, ConsumerConfig{.group_id = "g",
                                             .max_poll_records = 4});
    consumer.subscribe("t", /*bounded=*/true).expect_ok();
    FetchBatch batch;
    EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kOk);
    EXPECT_EQ(batch.size(), 4u);
    consumer.commit();
  }
  // "Restarted" consumer in the same group resumes at the commit.
  Consumer resumed(broker, ConsumerConfig{.group_id = "g",
                                          .max_poll_records = 100});
  resumed.subscribe("t", /*bounded=*/true).expect_ok();
  const std::vector<std::string> records = drain_values(resumed);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0], "4");
}

TEST(ConsumerTest, NoGroupStartsAtZero) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, 1);
  broker.commit_offset("g", {"t", 0}, 1);  // some group's commit: ignored
  Consumer consumer(broker);
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  EXPECT_EQ(drain_values(consumer), std::vector<std::string>{"0"});
}

TEST(ConsumerTest, CommittedOffsetQueries) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  EXPECT_EQ(broker.committed_offset("g", {"t", 0}), -1);
  broker.commit_offset("g", {"t", 0}, 17);
  EXPECT_EQ(broker.committed_offset("g", {"t", 0}), 17);
  EXPECT_EQ(broker.committed_offset("other", {"t", 0}), -1);
}

TEST(ConsumerTest, SubscribeUnknownTopicFails) {
  Broker broker;
  Consumer consumer(broker);
  EXPECT_EQ(consumer.subscribe("missing", /*bounded=*/true).code(),
            StatusCode::kNotFound);
}

// --- the read contract: slice, start offset, end of input -------------------------

TEST(ConsumerContractTest, BoundedReadClosesWithTheBatchReachingTheEnd) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, 10);
  Consumer consumer(broker, ConsumerConfig{.max_poll_records = 6});
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  // Appended after subscribe: beyond the recorded end, never read.
  append_numbered(broker, 5);

  FetchBatch batch;
  EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kOk);
  EXPECT_EQ(batch.size(), 6u);
  // The batch that reaches offset 10 carries kClosed and stops there.
  EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kClosed);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.records.back().offset, 9);
  EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kClosed);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(consumer.positions().front().second, 10);
}

TEST(ConsumerContractTest, FinishedConsumerReturnsAtOnceDespiteTimeout) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, 3);
  Consumer consumer(broker);
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  EXPECT_EQ(drain_values(consumer).size(), 3u);
  FetchBatch batch;
  Stopwatch watch;
  EXPECT_EQ(consumer.poll_batch(/*timeout_ms=*/10'000, batch),
            FetchState::kClosed);
  EXPECT_TRUE(batch.empty());
  EXPECT_LT(watch.elapsed_ms(), 1000.0);

  // Open loop: sealed and drained is just as final.
  Consumer open(broker);
  open.subscribe("t", /*bounded=*/false).expect_ok();
  broker.seal_topic("t").expect_ok();
  EXPECT_EQ(drain_values(open).size(), 3u);
  Stopwatch open_watch;
  EXPECT_EQ(open.poll_batch(/*timeout_ms=*/10'000, batch),
            FetchState::kClosed);
  EXPECT_LT(open_watch.elapsed_ms(), 1000.0);
}

TEST(ConsumerContractTest, EmptyBoundedSliceIsClosedAtOnce) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  append_numbered(broker, 3);
  // Shard 1 of 2 over one partition owns nothing.
  Consumer consumer(broker);
  consumer.subscribe("t", /*bounded=*/true, Shard{.index = 1, .count = 2})
      .expect_ok();
  EXPECT_TRUE(consumer.positions().empty());
  FetchBatch batch;
  Stopwatch watch;
  EXPECT_EQ(consumer.poll_batch(/*timeout_ms=*/10'000, batch),
            FetchState::kClosed);
  EXPECT_TRUE(batch.empty());
  EXPECT_LT(watch.elapsed_ms(), 1000.0);
}

TEST(ConsumerContractTest, EmptyOpenSliceReadsOkUntilSealThenClosed) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  Consumer consumer(broker);
  consumer.subscribe("t", /*bounded=*/false, Shard{.index = 1, .count = 2})
      .expect_ok();
  FetchBatch batch;
  EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kOk);
  // Appends to partitions it does not own neither end nor feed the slice.
  append_numbered(broker, 3);
  EXPECT_EQ(consumer.poll_batch(/*timeout_ms=*/5, batch), FetchState::kOk);
  EXPECT_TRUE(batch.empty());

  // A blocked poll wakes on the seal instead of sleeping out its timeout.
  FetchState state = FetchState::kOk;
  std::thread poller(
      [&] { state = consumer.poll_batch(/*timeout_ms=*/10'000, batch); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Stopwatch watch;
  broker.seal_topic("t").expect_ok();
  poller.join();
  EXPECT_EQ(state, FetchState::kClosed);
  EXPECT_LT(watch.elapsed_ms(), 5000.0);
  EXPECT_TRUE(batch.empty());
}

TEST(ConsumerContractTest, ShardOwnsPartitionsModuloCount) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 7}).expect_ok();
  for (int count = 1; count <= 4; ++count) {
    std::vector<int> owners(7, 0);
    for (int index = 0; index < count; ++index) {
      Consumer consumer(broker);
      consumer.subscribe("t", /*bounded=*/true,
                         Shard{.index = index, .count = count})
          .expect_ok();
      for (const auto& [tp, position] : consumer.positions()) {
        EXPECT_EQ(tp.partition % count, index);
        ++owners[static_cast<std::size_t>(tp.partition)];
      }
    }
    // Every partition has exactly one owner.
    EXPECT_EQ(owners, std::vector<int>(7, 1)) << "count " << count;
  }
  Consumer consumer(broker);
  EXPECT_EQ(consumer.subscribe("t", true, Shard{.index = 2, .count = 2})
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ConsumerContractTest, ResumesFromCommittedOffsetsOnlyWithAGroup) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 2}).expect_ok();
  append_numbered(broker, 10, 0);
  append_numbered(broker, 10, 1);
  broker.commit_offset("g", {"t", 0}, 4);
  broker.commit_offset("g", {"t", 1}, 7);

  Consumer grouped(broker, ConsumerConfig{.group_id = "g"});
  grouped.subscribe("t", /*bounded=*/true, Shard{.index = 1, .count = 2})
      .expect_ok();
  ASSERT_EQ(grouped.positions().size(), 1u);
  EXPECT_EQ(grouped.positions().front().second, 7);
  EXPECT_EQ(drain_values(grouped),
            (std::vector<std::string>{"7", "8", "9"}));

  Consumer ungrouped(broker);
  ungrouped.subscribe("t", /*bounded=*/true).expect_ok();
  for (const auto& [tp, position] : ungrouped.positions()) {
    EXPECT_EQ(position, 0) << "p" << tp.partition;
  }
  EXPECT_EQ(drain_values(ungrouped).size(), 20u);
}

TEST(ConsumerContractTest, CommittedOffsetsAreIsolatedPerPartition) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 3}).expect_ok();
  broker.commit_offset("g", {"t", 0}, 7);
  broker.commit_offset("g", {"t", 2}, 11);
  EXPECT_EQ(broker.committed_offset("g", {"t", 0}), 7);
  EXPECT_EQ(broker.committed_offset("g", {"t", 1}), -1);
  EXPECT_EQ(broker.committed_offset("g", {"t", 2}), 11);
  // Groups are isolated from each other too.
  EXPECT_EQ(broker.committed_offset("other", {"t", 0}), -1);
}

TEST(ConsumerContractTest, BoundedSliceStopsAtSubscribeOffsetsPerPartition) {
  Broker broker;
  broker.create_topic("t", TopicConfig{.partitions = 2}).expect_ok();
  append_numbered(broker, 7, 0);
  append_numbered(broker, 5, 1);
  Consumer consumer(broker, ConsumerConfig{.max_poll_records = 3});
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  // Appended after subscribe: beyond the recorded end, never read.
  append_numbered(broker, 4, 0);
  const std::int64_t ends[] = {7, 5};

  FetchBatch batch;
  FetchState state = FetchState::kOk;
  std::size_t read = 0;
  while (state != FetchState::kClosed) {
    state = consumer.poll_batch(0, batch);
    read += batch.size();
    for (const auto& record : batch.records) {
      EXPECT_LT(record.offset, ends[batch.tp.partition])
          << "p" << batch.tp.partition;
    }
  }
  EXPECT_EQ(read, 12u);
  for (const auto& [tp, position] : consumer.positions()) {
    EXPECT_EQ(position, ends[tp.partition]) << "p" << tp.partition;
  }
  // Finished: the later appends stay unread.
  EXPECT_EQ(consumer.poll_batch(0, batch), FetchState::kClosed);
  EXPECT_TRUE(batch.empty());
}

// --- producer/consumer integration ------------------------------------------------

TEST(KafkaIntegrationTest, ProducerToConsumerEndToEnd) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  Producer producer(broker, ProducerConfig{.batch_size = 16, .linger_us = 0});
  for (int i = 0; i < 1000; ++i) {
    producer.send("t", 0, ProducerRecord{.value = std::to_string(i)})
        .expect_ok();
  }
  producer.close().expect_ok();

  Consumer consumer(broker, ConsumerConfig{.max_poll_records = 128});
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  const std::vector<std::string> seen = drain_values(consumer);
  ASSERT_EQ(seen.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

// --- broker shutdown / drain semantics ---------------------------------------------

TEST(BrokerShutdownTest, PollBatchDrainsThenReportsClosed) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  for (int i = 0; i < 3; ++i) {
    broker.append({"t", 0}, ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
  Consumer consumer(broker);
  consumer.subscribe("t", /*bounded=*/false).expect_ok();
  broker.begin_shutdown();

  // Stored records stay fetchable: the final batch still delivers them.
  FetchBatch batch;
  EXPECT_EQ(consumer.poll_batch(/*timeout_ms=*/1000, batch),
            FetchState::kClosed);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.records[0].value, "0");
  EXPECT_EQ(batch.records[2].value, "2");

  // Drained: further polls deliver empty final batches, still kClosed.
  EXPECT_EQ(consumer.poll_batch(/*timeout_ms=*/1000, batch),
            FetchState::kClosed);
  EXPECT_TRUE(batch.empty());
}

TEST(BrokerShutdownTest, AppendAfterShutdownIsRejected) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  broker.begin_shutdown();
  const auto single =
      broker.append({"t", 0}, ProducerRecord{.value = "x"}, false);
  EXPECT_EQ(single.status().code(), StatusCode::kClosed);
  const auto batch = broker.append_batch(
      {"t", 0}, {ProducerRecord{.value = "x"}}, false);
  EXPECT_EQ(batch.status().code(), StatusCode::kClosed);
}

TEST(BrokerShutdownTest, ShutdownWakesBlockedPollBatch) {
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  std::atomic<bool> polling{false};
  FetchState state = FetchState::kOk;
  std::thread poller([&] {
    Consumer consumer(broker);
    consumer.subscribe("t", /*bounded=*/false).expect_ok();
    FetchBatch batch;
    polling.store(true);
    state = consumer.poll_batch(/*timeout_ms=*/10'000, batch);
  });
  while (!polling.load()) std::this_thread::yield();
  // Let the poller enter its blocking fetch, then shut down: it must return
  // promptly rather than sleeping out the 10 s fetch timeout.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Stopwatch watch;
  broker.begin_shutdown();
  poller.join();
  EXPECT_EQ(state, FetchState::kClosed);
  EXPECT_LT(watch.elapsed_ms(), 5000.0);
}

// --- producer retries under injected outages -----------------------------------

TEST(ProducerTest, RetriesThroughInjectedBrokerOutage) {
  auto& injector = runtime::FaultInjector::instance();
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  // The second append to "t" opens a 2 ms unavailability window; the
  // producer's capped-backoff retry loop must ride it out. Its five retries
  // back off 200, 400, 800, 1600 and 3200 us (+-20% jitter), at least
  // ~5 ms in all.
  injector.arm(7, {runtime::FaultRule{
                      .point = runtime::FaultPoint::kBrokerUnavailable,
                      .site = "t",
                      .after_hits = 1,
                      .times = 1,
                      .param_us = 2'000}});
  Producer producer(broker, ProducerConfig{.batch_size = 1});
  producer.send("t", 0, ProducerRecord{.value = "first"}).expect_ok();
  producer.send("t", 0, ProducerRecord{.value = "second"}).expect_ok();
  producer.close().expect_ok();
  injector.disarm();

  EXPECT_GT(producer.send_retries(), 0u);
  EXPECT_GT(injector.injected_count(), 0u);
  Consumer consumer(broker);
  consumer.subscribe("t", /*bounded=*/true).expect_ok();
  EXPECT_EQ(drain_values(consumer),
            (std::vector<std::string>{"first", "second"}));
}

TEST(ProducerTest, SurfacesUnavailableAfterRetryExhaustion) {
  auto& injector = runtime::FaultInjector::instance();
  Broker broker;
  broker.create_topic("t", single_partition()).expect_ok();
  // A 50 ms outage outlasts the five retries' backoff (at most ~7.5 ms):
  // the send must surface kUnavailable instead of spinning until the window
  // closes.
  injector.arm(11, {runtime::FaultRule{
                       .point = runtime::FaultPoint::kBrokerUnavailable,
                       .site = "t",
                       .after_hits = 1,
                       .times = 1,
                       .param_us = 50'000}});
  Producer producer(broker, ProducerConfig{.batch_size = 1});
  producer.send("t", 0, ProducerRecord{.value = "first"}).expect_ok();
  const Status second = producer.send("t", 0, ProducerRecord{.value = "x"});
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
  EXPECT_EQ(producer.send_retries(),
            static_cast<std::uint64_t>(kProducerMaxRetries));
  injector.disarm();
}

}  // namespace
}  // namespace dsps::kafka
