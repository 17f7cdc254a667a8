// Tests for Spark-sim: RDD lineage and lazy pipelining, shuffles, the DAG
// scheduler, D-Streams, and the bounded streaming context.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "spark/kafka_io.hpp"
#include "spark/streaming_context.hpp"

namespace dsps::spark {
namespace {

std::vector<int> ints(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// --- RDD core ------------------------------------------------------------------

TEST(RddTest, ParallelizeSplitsEvenly) {
  SparkContext sc(SparkConf{.default_parallelism = 4});
  auto rdd = sc.parallelize(ints(100), 4);
  EXPECT_EQ(rdd->partitions(), 4);
  auto collected = sc.collect(rdd);
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, ints(100));
}

std::vector<std::string> words(int n) {
  std::vector<std::string> v;
  for (int i = 0; i < n; ++i) v.push_back("row-" + std::to_string(i));
  return v;
}

TEST(RddTest, ParallelizeSinglePartitionKeepsOrderAndContent) {
  SparkContext sc(SparkConf{.default_parallelism = 1});
  auto rdd = sc.parallelize(words(1000), 1);
  EXPECT_EQ(rdd->partitions(), 1);
  EXPECT_EQ(sc.collect(rdd), words(1000));
}

TEST(RddTest, ComputingAPartitionTwiceYieldsTheSameRows) {
  // A batch retry recomputes the same partition; walking it must not
  // consume the stored rows.
  SparkContext sc(SparkConf{.default_parallelism = 2});
  auto rdd = sc.parallelize(words(10), 2);
  const std::vector<std::string> first = drain(*rdd->compute(1));
  const std::vector<std::string> second = drain(*rdd->compute(1));
  EXPECT_EQ(first, (std::vector<std::string>{"row-5", "row-6", "row-7",
                                             "row-8", "row-9"}));
  EXPECT_EQ(second, first);
}

TEST(RddTest, PartitionIteratorOutlivesItsRdd) {
  SparkContext sc(SparkConf{.default_parallelism = 2});
  auto rdd = sc.parallelize(words(6), 2);
  IterPtr<std::string> iter = rdd->compute(0);
  rdd.reset();  // the iterator now holds the only reference to the rows
  EXPECT_EQ(drain(*iter),
            (std::vector<std::string>{"row-0", "row-1", "row-2"}));
}

TEST(RddTest, MapIsLazyUntilAction) {
  SparkContext sc(SparkConf{.default_parallelism = 2});
  std::atomic<int> invocations{0};
  auto base = sc.parallelize(ints(10), 2);
  RDDPtr<int> mapped = std::make_shared<MapRDD<int, int>>(
      base, [&invocations](const int& v) {
        invocations.fetch_add(1);
        return v * 2;
      });
  EXPECT_EQ(invocations.load(), 0);  // nothing ran yet
  EXPECT_EQ(sc.count(mapped), 10u);
  EXPECT_EQ(invocations.load(), 10);
}

TEST(RddTest, FilterRemovesElements) {
  SparkContext sc(SparkConf{.default_parallelism = 2});
  auto base = sc.parallelize(ints(100), 2);
  RDDPtr<int> filtered = std::make_shared<FilterRDD<int>>(
      base, [](const int& v) { return v >= 90; });
  auto collected = sc.collect(filtered);
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, (std::vector<int>{90, 91, 92, 93, 94, 95, 96, 97, 98,
                                         99}));
}

TEST(RddTest, NarrowChainPipelinesWithoutMaterializing) {
  // Pipelining property: the map fn on element i runs *after* the filter on
  // element i-1 would have been skipped — i.e. pulls interleave. We verify
  // by checking the max live intermediate count stays ~1 per pull, using an
  // instrumented iterator through MapPartitionsRDD.
  SparkContext sc(SparkConf{.default_parallelism = 1});
  auto base = sc.parallelize(ints(1000), 1);
  std::atomic<int> mapped{0};
  RDDPtr<int> chain = std::make_shared<MapRDD<int, int>>(
      base, [&mapped](const int& v) {
        mapped.fetch_add(1);
        return v;
      });
  auto iter = chain->compute(0);
  (void)iter->next();
  (void)iter->next();
  // Only the pulled elements were computed — lazy, not materialized.
  EXPECT_EQ(mapped.load(), 2);
}

TEST(RddTest, MapPartitionsSeesWholePartitionLazily) {
  SparkContext sc(SparkConf{.default_parallelism = 2});
  auto base = sc.parallelize(ints(10), 2);
  RDDPtr<int> summed = std::make_shared<MapPartitionsRDD<int, int>>(
      base, [](IterPtr<int> in) -> IterPtr<int> {
        int sum = 0;
        while (auto v = in->next()) sum += *v;
        return std::make_unique<SliceIterator<int>>(
            std::make_shared<const std::vector<int>>(1, sum));
      });
  auto collected = sc.collect(summed);
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_EQ(collected[0] + collected[1], 45);
}

// --- shuffles --------------------------------------------------------------------

TEST(ShuffleTest, RepartitionPreservesElements) {
  SparkContext sc(SparkConf{.default_parallelism = 4});
  auto base = sc.parallelize(ints(1000), 2);
  RDDPtr<int> repartitioned = std::make_shared<RepartitionRDD<int>>(base, 5);
  EXPECT_EQ(repartitioned->partitions(), 5);
  auto collected = sc.collect(repartitioned);
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, ints(1000));
  EXPECT_EQ(sc.shuffles_run(), 1u);
}

TEST(ShuffleTest, RepartitionBalances) {
  SparkContext sc(SparkConf{.default_parallelism = 4});
  auto base = sc.parallelize(ints(1000), 1);
  auto repartitioned = std::make_shared<RepartitionRDD<int>>(base, 4);
  sc.prepare_shuffles(repartitioned);
  for (int p = 0; p < 4; ++p) {
    const auto part = drain(*repartitioned->compute(p));
    EXPECT_EQ(part.size(), 250u);  // round robin is exactly balanced
  }
}

/// Counts copy constructions; moves are free.
struct CopyCounted {
  static inline std::atomic<int> copies{0};
  int value = 0;

  explicit CopyCounted(int v) : value(v) {}
  CopyCounted(const CopyCounted& other) : value(other.value) {
    copies.fetch_add(1);
  }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(const CopyCounted& other) {
    value = other.value;
    copies.fetch_add(1);
    return *this;
  }
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
};

TEST(ShuffleTest, BucketIsCopiedRowByRowAndSurvivesRecompute) {
  SparkContext sc(SparkConf{.default_parallelism = 2});
  std::vector<CopyCounted> rows;
  for (int i = 0; i < 100; ++i) rows.emplace_back(i);
  auto base = sc.parallelize(std::move(rows), 2);
  auto repartitioned = std::make_shared<RepartitionRDD<CopyCounted>>(base, 2);
  sc.prepare_shuffles(repartitioned);

  const auto values_of = [](IterPtr<CopyCounted> iter) {
    std::vector<int> values;
    while (auto row = iter->next()) values.push_back(row->value);
    return values;
  };
  CopyCounted::copies.store(0);
  auto iter = repartitioned->compute(0);
  // Opening a task copies nothing; each pull copies one row.
  EXPECT_EQ(CopyCounted::copies.load(), 0);
  const std::vector<int> first = values_of(std::move(iter));
  EXPECT_EQ(first.size(), 50u);
  EXPECT_EQ(CopyCounted::copies.load(), 50);
  // A retry recomputes the split from the kept bucket.
  EXPECT_EQ(values_of(repartitioned->compute(0)), first);
}

TEST(ShuffleTest, ShuffleRunsOncePerRddInstance) {
  SparkContext sc(SparkConf{.default_parallelism = 2});
  auto base = sc.parallelize(ints(10), 2);
  auto repartitioned = std::make_shared<RepartitionRDD<int>>(base, 2);
  sc.prepare_shuffles(repartitioned);
  sc.prepare_shuffles(repartitioned);  // idempotent
  EXPECT_EQ(sc.shuffles_run(), 1u);
}

TEST(ShuffleTest, ChainedShufflesPrepareParentsFirst) {
  SparkContext sc(SparkConf{.default_parallelism = 2});
  auto base = sc.parallelize(ints(100), 2);
  RDDPtr<int> first = std::make_shared<RepartitionRDD<int>>(base, 3);
  RDDPtr<int> mapped = std::make_shared<MapRDD<int, int>>(
      first, [](const int& v) { return v + 1; });
  RDDPtr<int> second = std::make_shared<RepartitionRDD<int>>(mapped, 2);
  auto collected = sc.collect(second);
  std::sort(collected.begin(), collected.end());
  std::vector<int> expected;
  for (int i = 1; i <= 100; ++i) expected.push_back(i);
  EXPECT_EQ(collected, expected);
  EXPECT_EQ(sc.shuffles_run(), 2u);
}

// --- scheduler metrics ------------------------------------------------------------

TEST(SchedulerTest, TaskCountMatchesPartitions) {
  SparkContext sc(SparkConf{.default_parallelism = 4});
  auto rdd = sc.parallelize(ints(100), 8);
  sc.run_job<int>(rdd, [](int, IterPtr<int>) {});
  EXPECT_EQ(sc.tasks_launched(), 8u);
  EXPECT_EQ(sc.jobs_run(), 1u);
}

TEST(SchedulerTest, RejectsBadParallelism) {
  EXPECT_THROW(SparkContext sc(SparkConf{.default_parallelism = 0}),
               std::invalid_argument);
}

// --- DStreams ---------------------------------------------------------------------

TEST(DStreamTest, KafkaDirectStreamProcessesBatches) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 100; ++i) {
    broker.append({"in", 0},
                  kafka::ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
  StreamingContext ssc(SparkConf{.default_parallelism = 2}, 10);
  auto lines = ssc.kafka_direct_stream(broker, "in");
  std::atomic<int> seen{0};
  lines.foreach_rdd([&seen](SparkContext& sc,
                            const RDDPtr<kafka::Payload>& rdd) {
    seen.fetch_add(static_cast<int>(sc.count(rdd)));
  });
  ASSERT_TRUE(ssc.run_bounded().is_ok());
  EXPECT_EQ(seen.load(), 100);
}

TEST(DStreamTest, DirectStreamBatchLargerThanFetchChunkClaimsEachRecordOnce) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  const std::size_t count = 3 * StreamingContext::kDirectFetchRecords + 7;
  std::vector<kafka::ProducerRecord> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(kafka::ProducerRecord{.value = std::to_string(i)});
  }
  broker.append_batch({"in", 0}, batch, false).status().expect_ok();

  StreamingContext ssc(SparkConf{.default_parallelism = 1}, 10);
  std::vector<std::vector<kafka::Payload>> batches;
  ssc.kafka_direct_stream(broker, "in")
      .foreach_rdd([&batches](SparkContext& sc,
                              const RDDPtr<kafka::Payload>& rdd) {
        batches.push_back(sc.collect(rdd));
      });
  ASSERT_TRUE(ssc.run_bounded().is_ok());
  ASSERT_FALSE(batches.empty());
  // Everything was stored before the first batch, so that batch claims
  // the whole range across four fetch chunks.
  ASSERT_EQ(batches.front().size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(batches.front()[i], std::to_string(i));
  }
  for (std::size_t b = 1; b < batches.size(); ++b) {
    EXPECT_TRUE(batches[b].empty());
  }
}

TEST(DStreamTest, TransformationsComposePerBatch) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 50; ++i) {
    broker.append({"in", 0},
                  kafka::ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
  StreamingContext ssc(SparkConf{.default_parallelism = 1}, 10);
  auto out = ssc.kafka_direct_stream(broker, "in")
                 .map<int>([](const kafka::Payload& s) {
                   return std::stoi(s.str());
                 })
                 .filter([](const int& v) { return v % 5 == 0; });
  std::vector<int> seen;
  std::mutex seen_mutex;
  out.foreach_rdd([&](SparkContext& sc, const RDDPtr<int>& rdd) {
    for (const int v : sc.collect(rdd)) {
      std::lock_guard lock(seen_mutex);
      seen.push_back(v);
    }
  });
  ASSERT_TRUE(ssc.run_bounded().is_ok());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 5, 10, 15, 20, 25, 30, 35, 40, 45}));
}

TEST(DStreamTest, MultipleOutputsShareOneLineagePerBatch) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 10; ++i) {
    broker.append({"in", 0}, kafka::ProducerRecord{.value = "x"}, false)
        .status()
        .expect_ok();
  }
  StreamingContext ssc(SparkConf{.default_parallelism = 1}, 10);
  auto stream = ssc.kafka_direct_stream(broker, "in")
                    .map_partitions<kafka::Payload>(
                        [](IterPtr<kafka::Payload> in) { return in; });
  // Each output keeps every batch's RDD alive, so two distinct lineages
  // could never share an address.
  std::mutex mutex;
  std::vector<RDDPtr<kafka::Payload>> seen_a, seen_b;
  std::atomic<int> a{0}, b{0};
  stream.foreach_rdd([&](SparkContext& sc,
                         const RDDPtr<kafka::Payload>& rdd) {
    a.fetch_add(static_cast<int>(sc.count(rdd)));
    std::lock_guard lock(mutex);
    seen_a.push_back(rdd);
  });
  stream.foreach_rdd([&](SparkContext& sc,
                         const RDDPtr<kafka::Payload>& rdd) {
    b.fetch_add(static_cast<int>(sc.count(rdd)));
    std::lock_guard lock(mutex);
    seen_b.push_back(rdd);
  });
  ASSERT_TRUE(ssc.run_bounded().is_ok());
  EXPECT_EQ(a.load(), 10);
  EXPECT_EQ(b.load(), 10);
  // Memoized per batch: one lineage per batch, shared by both outputs.
  EXPECT_EQ(seen_a.size(),
            static_cast<std::size_t>(ssc.metrics().counter("batch.count")));
  EXPECT_EQ(seen_a, seen_b);
}


// --- streaming context ---------------------------------------------------------------

TEST(StreamingContextTest, RunBoundedStopsWhenDrained) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.append({"in", 0}, kafka::ProducerRecord{.value = "only"}, false)
      .status()
      .expect_ok();
  StreamingContext ssc(SparkConf{.default_parallelism = 1}, 5);
  auto lines = ssc.kafka_direct_stream(broker, "in");
  lines.foreach_rdd(
      [](SparkContext& sc, const RDDPtr<kafka::Payload>& rdd) {
        (void)sc.count(rdd);
      });
  ASSERT_TRUE(ssc.run_bounded().is_ok());
  const auto snapshot = ssc.metrics();
  EXPECT_GE(snapshot.counter("batch.count"), 2u);  // data batch + empty closer
  EXPECT_EQ(snapshot.counter("input.records"), 1u);
  EXPECT_EQ(snapshot.gauge("batch.last_input_records"), 0.0);
}

TEST(StreamingContextTest, StartStopStreamsContinuously) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  StreamingContext ssc(SparkConf{.default_parallelism = 1}, 5);
  auto lines = ssc.kafka_direct_stream(broker, "in");
  std::atomic<int> seen{0};
  lines.foreach_rdd([&seen](SparkContext& sc,
                            const RDDPtr<kafka::Payload>& rdd) {
    seen.fetch_add(static_cast<int>(sc.count(rdd)));
  });
  ASSERT_TRUE(ssc.start().is_ok());
  // Feed records while the generator ticks (true streaming, not bounded).
  for (int i = 0; i < 20; ++i) {
    broker.append({"in", 0}, kafka::ProducerRecord{.value = "x"}, false)
        .status()
        .expect_ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  while (seen.load() < 20) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ssc.stop();
  EXPECT_EQ(seen.load(), 20);
}

TEST(StreamingContextTest, StartWithoutOutputsFails) {
  StreamingContext ssc(SparkConf{}, 10);
  EXPECT_EQ(ssc.start().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingContextTest, WriteToKafkaEndToEnd) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 200; ++i) {
    broker.append({"in", 0},
                  kafka::ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
  StreamingContext ssc(SparkConf{.default_parallelism = 2}, 10);
  auto evens = ssc.kafka_direct_stream(broker, "in")
                   .filter([](const kafka::Payload& s) {
                     return std::stoi(s.str()) % 2 == 0;
                   });
  write_to_kafka(evens, broker, KafkaWriteConfig{.topic = "out"});
  ASSERT_TRUE(ssc.run_bounded().is_ok());
  EXPECT_EQ(broker.end_offset({"out", 0}).value(), 100);
}

}  // namespace
}  // namespace dsps::spark
