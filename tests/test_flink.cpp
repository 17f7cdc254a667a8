// Tests for Flink-sim: the DataStream API, the chaining optimizer, the
// runtime (channels, parallelism, routing), and connectors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "flink/environment.hpp"
#include "flink/kafka_connectors.hpp"

namespace dsps::flink {
namespace {

/// Source emitting the integers [0, n).
SourceFactory int_source(int n) {
  class IntSource final : public SourceFunction {
   public:
    explicit IntSource(int n) : n_(n) {}
    void open(const RuntimeContext& context) override {
      start_ = context.subtask_index;
      stride_ = context.parallelism;
    }
    void run(SourceContext& context) override {
      for (int i = start_; i < n_ && !context.cancelled(); i += stride_) {
        context.collect(make_elem<int>(i));
      }
    }

   private:
    int n_;
    int start_ = 0;
    int stride_ = 1;
  };
  return [n] { return std::make_unique<IntSource>(n); };
}

/// Thread-safe collecting sink.
struct Collected {
  std::mutex mutex;
  std::vector<int> values;

  void add(int value) {
    std::lock_guard lock(mutex);
    values.push_back(value);
  }
  std::vector<int> sorted() {
    std::lock_guard lock(mutex);
    std::vector<int> copy = values;
    std::sort(copy.begin(), copy.end());
    return copy;
  }
};

std::vector<int> iota(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// --- basic pipelines -----------------------------------------------------------

TEST(FlinkTest, SourceMapSink) {
  StreamExecutionEnvironment env;
  auto collected = std::make_shared<Collected>();
  env.add_source<int>(int_source(100))
      .map<int>([](const int& v) { return v * 2; })
      .for_each([collected](const int& v) { collected->add(v); });
  ASSERT_TRUE(env.execute().is_ok());
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) expected.push_back(i * 2);
  EXPECT_EQ(collected->sorted(), expected);
}

TEST(FlinkTest, FilterDropsElements) {
  StreamExecutionEnvironment env;
  auto collected = std::make_shared<Collected>();
  env.add_source<int>(int_source(100))
      .filter([](const int& v) { return v % 10 == 0; })
      .for_each([collected](const int& v) { collected->add(v); });
  ASSERT_TRUE(env.execute().is_ok());
  EXPECT_EQ(collected->sorted(),
            (std::vector<int>{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}));
}

TEST(FlinkTest, EmptyGraphFailsPrecondition) {
  StreamExecutionEnvironment env;
  EXPECT_EQ(env.execute().status().code(), StatusCode::kFailedPrecondition);
}

TEST(FlinkTest, MetricsCountRecords) {
  StreamExecutionEnvironment env;
  env.add_source<int>(int_source(50))
      .filter([](const int& v) { return v < 10; })
      .for_each([](const int&) {});
  auto result = env.execute();
  ASSERT_TRUE(result.is_ok());
  // Chained into one vertex: 50 in at the source, 10 out of the filter...
  // the vertex-level counters see source records in.
  ASSERT_EQ(result.value().vertex_names.size(), 1u);
  EXPECT_EQ(result.value().records_in(0), 50u);
}

// --- chaining -------------------------------------------------------------------

TEST(FlinkChainingTest, LinearPipelineChainsToOneVertex) {
  StreamExecutionEnvironment env;
  env.add_source<int>(int_source(1))
      .map<int>([](const int& v) { return v; })
      .filter([](const int&) { return true; })
      .for_each([](const int&) {});
  const JobGraph job = build_job_graph(env.graph(), true);
  EXPECT_EQ(job.vertices.size(), 1u);
  EXPECT_TRUE(job.edges.empty());
}

TEST(FlinkChainingTest, DisabledChainingSplitsEveryOperator) {
  StreamExecutionEnvironment env;
  env.add_source<int>(int_source(1))
      .map<int>([](const int& v) { return v; })
      .filter([](const int&) { return true; })
      .for_each([](const int&) {});
  const JobGraph job = build_job_graph(env.graph(), false);
  EXPECT_EQ(job.vertices.size(), 4u);
  EXPECT_EQ(job.edges.size(), 3u);
}

TEST(FlinkChainingTest, RebalanceBreaksTheChain) {
  StreamExecutionEnvironment env;
  env.add_source<int>(int_source(1))
      .rebalance()
      .for_each([](const int&) {});
  const JobGraph job = build_job_graph(env.graph(), true);
  EXPECT_GE(job.vertices.size(), 2u);
}

TEST(FlinkChainingTest, ChainingPreservesResults) {
  for (const bool chaining : {true, false}) {
    StreamExecutionEnvironment env;
    if (!chaining) env.disable_operator_chaining();
    auto collected = std::make_shared<Collected>();
    env.add_source<int>(int_source(200))
        .map<int>([](const int& v) { return v + 1; })
        .filter([](const int& v) { return v % 2 == 0; })
        .map<int>([](const int& v) { return v * 10; })
        .for_each([collected](const int& v) { collected->add(v); });
    ASSERT_TRUE(env.execute().is_ok());
    std::vector<int> expected;
    for (int i = 0; i < 200; ++i) {
      if ((i + 1) % 2 == 0) expected.push_back((i + 1) * 10);
    }
    EXPECT_EQ(collected->sorted(), expected) << "chaining=" << chaining;
  }
}

TEST(FlinkChainingTest, ExecutionPlanShowsThreeElementsForChainedGrep) {
  // The Fig. 12 shape: Source -> Filter -> Sink in one chain.
  StreamExecutionEnvironment env;
  env.add_source<int>(int_source(1), "Custom Source")
      .filter([](const int&) { return true; }, "Filter")
      .for_each([](const int&) {}, "Unnamed");
  const std::string plan = env.execution_plan();
  EXPECT_NE(plan.find("Source: Custom Source -> Filter -> Sink: Unnamed"),
            std::string::npos);
}

// --- parallelism and partitioning -------------------------------------------------

class FlinkParallelismTest : public ::testing::TestWithParam<int> {};

TEST_P(FlinkParallelismTest, ResultsIndependentOfParallelism) {
  const int parallelism = GetParam();
  StreamExecutionEnvironment env;
  env.set_parallelism(parallelism);
  auto collected = std::make_shared<Collected>();
  env.add_source<int>(int_source(500))
      .map<int>([](const int& v) { return v * 3; })
      .for_each([collected](const int& v) { collected->add(v); });
  ASSERT_TRUE(env.execute().is_ok());
  std::vector<int> expected;
  for (int i = 0; i < 500; ++i) expected.push_back(i * 3);
  EXPECT_EQ(collected->sorted(), expected);
}

INSTANTIATE_TEST_SUITE_P(Parallelisms, FlinkParallelismTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(FlinkRuntimeTest, RebalanceDistributesAcrossSubtasks) {
  StreamExecutionEnvironment env;
  env.set_parallelism(2);
  std::array<std::atomic<int>, 2> per_subtask{};

  class CountingSink final : public SinkFunction {
   public:
    explicit CountingSink(std::array<std::atomic<int>, 2>* counters)
        : counters_(counters) {}
    void open(const RuntimeContext& context) override {
      index_ = context.subtask_index;
    }
    void invoke(const Elem&) override {
      (*counters_)[static_cast<std::size_t>(index_)].fetch_add(1);
    }

   private:
    std::array<std::atomic<int>, 2>* counters_;
    int index_ = 0;
  };

  // Single-subtask source (parallelism 1 via explicit node) feeding a
  // rebalance into a parallel sink.
  env.add_source<int>(int_source(100))
      .rebalance()
      .add_sink([&per_subtask] {
        return std::make_unique<CountingSink>(&per_subtask);
      });
  ASSERT_TRUE(env.execute().is_ok());
  // With parallelism 2, round-robin puts ~half on each sink subtask. The
  // source runs at parallelism 2 too (each subtask emits a disjoint half).
  EXPECT_EQ(per_subtask[0].load() + per_subtask[1].load(), 100);
  EXPECT_GT(per_subtask[0].load(), 20);
  EXPECT_GT(per_subtask[1].load(), 20);
}

TEST(FlinkRuntimeTest, UnchainedParallelPipelineDeliversEveryRecord) {
  // Three unchained vertices at parallelism 2: every record crosses two
  // channel hops and arrives exactly once.
  StreamExecutionEnvironment env;
  env.set_parallelism(2);
  env.disable_operator_chaining();
  auto collected = std::make_shared<Collected>();
  env.add_source<int>(int_source(10))
      .map<int>([](const int& v) { return v; })
      .for_each([collected](const int& v) { collected->add(v); });
  EXPECT_TRUE(env.execute().is_ok());
  EXPECT_EQ(collected->sorted(), iota(10));
}

TEST(FlinkRuntimeTest, SparseUnchainedEdgeFlushesMidStream) {
  // Two records 2 ms apart on an unchained edge: the second emit finds the
  // first past the 500 us buffer timeout and ships both. The source then
  // waits for the sink to hold them before it returns, so a router that held
  // records until end-of-stream would leave the wait to time out.
  class SparseSource final : public SourceFunction {
   public:
    SparseSource(std::shared_ptr<Collected> collected,
                 std::shared_ptr<std::atomic<bool>> flushed)
        : collected_(std::move(collected)), flushed_(std::move(flushed)) {}
    void run(SourceContext& context) override {
      context.collect(make_elem<int>(0));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      context.collect(make_elem<int>(1));
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(1);
      while (std::chrono::steady_clock::now() < give_up) {
        if (collected_->sorted().size() == 2) {
          flushed_->store(true);
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }

   private:
    std::shared_ptr<Collected> collected_;
    std::shared_ptr<std::atomic<bool>> flushed_;
  };

  StreamExecutionEnvironment env;
  env.disable_operator_chaining();
  auto collected = std::make_shared<Collected>();
  auto flushed = std::make_shared<std::atomic<bool>>(false);
  env.add_source<int>([collected, flushed] {
       return std::make_unique<SparseSource>(collected, flushed);
     }).for_each([collected](const int& v) { collected->add(v); });
  EXPECT_EQ(build_job_graph(env.graph(), false).vertices.size(), 2u);
  ASSERT_TRUE(env.execute().is_ok());
  EXPECT_TRUE(flushed->load()) << "router held the records until EOS";
  EXPECT_EQ(collected->sorted(), iota(2));
}

// --- async execution ---------------------------------------------------------------

TEST(FlinkAsyncTest, CancelStopsUnboundedSource) {
  class UnboundedSource final : public SourceFunction {
   public:
    void run(SourceContext& context) override {
      int i = 0;
      while (!context.cancelled()) context.collect(make_elem<int>(i++));
    }
  };
  StreamExecutionEnvironment env;
  std::atomic<int> seen{0};
  env.add_source<int>([] { return std::make_unique<UnboundedSource>(); })
      .for_each([&seen](const int&) { seen.fetch_add(1); });
  auto handle = env.execute_async();
  ASSERT_TRUE(handle.is_ok());
  while (seen.load() < 1000) std::this_thread::yield();
  handle.value()->cancel();
  const JobResult result = handle.value()->wait();
  EXPECT_GE(seen.load(), 1000);
  EXPECT_GT(result.duration_ms, 0.0);
}

// --- Kafka connectors ----------------------------------------------------------------

TEST(FlinkKafkaTest, BoundedSourceToSinkRoundTrip) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 100; ++i) {
    broker
        .append({"in", 0},
                kafka::ProducerRecord{.value = "msg-" + std::to_string(i)},
                false)
        .status()
        .expect_ok();
  }
  StreamExecutionEnvironment env;
  env.add_source<std::string>(
         kafka_source(broker, KafkaSourceConfig{.topic = "in"}))
      .add_sink(kafka_sink(broker, KafkaSinkConfig{.topic = "out"}));
  ASSERT_TRUE(env.execute().is_ok());
  EXPECT_EQ(broker.end_offset({"out", 0}).value(), 100);
}

TEST(FlinkKafkaTest, SurplusSourceSubtasksStayIdle) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 10; ++i) {
    broker.append({"in", 0}, kafka::ProducerRecord{.value = "x"}, false)
        .status()
        .expect_ok();
  }
  StreamExecutionEnvironment env;
  env.set_parallelism(3);  // > partition count
  env.add_source<std::string>(
         kafka_source(broker, KafkaSourceConfig{.topic = "in"}))
      .add_sink(kafka_sink(broker, KafkaSinkConfig{.topic = "out"}));
  ASSERT_TRUE(env.execute().is_ok());
  EXPECT_EQ(broker.end_offset({"out", 0}).value(), 10);  // no duplication
}

TEST(FlinkKafkaTest, MultiPartitionTopicShardsAcrossSubtasks) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 4}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 25; ++i) {
      broker.append({"in", p}, kafka::ProducerRecord{.value = "x"}, false)
          .status()
          .expect_ok();
    }
  }
  StreamExecutionEnvironment env;
  env.set_parallelism(2);
  env.add_source<std::string>(
         kafka_source(broker, KafkaSourceConfig{.topic = "in"}))
      .add_sink(kafka_sink(broker, KafkaSinkConfig{.topic = "out"}));
  ASSERT_TRUE(env.execute().is_ok());
  EXPECT_EQ(broker.end_offset({"out", 0}).value(), 100);
}

TEST(FlinkKafkaTest, CrashRestartRecoveryIsAtLeastOnce) {
  // Failure drill: an unbounded job is cancelled mid-stream; a restarted
  // job in the same consumer group resumes from the committed offsets.
  // The union of both jobs' outputs must cover every input record
  // (at-least-once: duplicates allowed, losses not).
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  // Ten polls' worth of input (the consumer returns up to 1000 records per
  // poll and the source commits after each one).
  constexpr int kRecords = 10'000;
  for (int i = 0; i < kRecords; ++i) {
    broker.append({"in", 0},
                  kafka::ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
  const KafkaSourceConfig source_config{
      .topic = "in", .group_id = "recovery-group", .bounded = false};

  // First incarnation: cancel once some output exists.
  {
    StreamExecutionEnvironment env;
    env.add_source<std::string>(kafka_source(broker, source_config))
        .add_sink(kafka_sink(broker, KafkaSinkConfig{.topic = "out"}));
    auto handle = env.execute_async();
    ASSERT_TRUE(handle.is_ok());
    while (broker.end_offset({"out", 0}).value() < 3000) {
      std::this_thread::yield();
    }
    handle.value()->cancel();
    handle.value()->wait();
  }
  const std::int64_t after_crash = broker.end_offset({"out", 0}).value();
  EXPECT_GE(after_crash, 3000);

  // Restarted incarnation: bounded drain of the remainder.
  {
    KafkaSourceConfig resumed = source_config;
    resumed.bounded = true;
    StreamExecutionEnvironment env;
    env.add_source<std::string>(kafka_source(broker, resumed))
        .add_sink(kafka_sink(broker, KafkaSinkConfig{.topic = "out"}));
    ASSERT_TRUE(env.execute().is_ok());
  }

  std::vector<kafka::StoredRecord> out;
  broker.fetch({"out", 0}, 0, 2 * kRecords, out).status().expect_ok();
  std::set<std::string> distinct;
  for (const auto& record : out) distinct.insert(record.value.str());
  EXPECT_EQ(distinct.size(), std::size_t{kRecords});  // no record lost
  EXPECT_GE(out.size(), std::size_t{kRecords});       // duplicates OK
  // Replay window bounded by the commit cadence: at most one poll.
  EXPECT_LE(out.size(), std::size_t{kRecords} + 1000);
}

}  // namespace
}  // namespace dsps::flink
