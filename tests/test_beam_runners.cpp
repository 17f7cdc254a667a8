// Cross-runner tests: the same pipeline must produce the same results on
// the DirectRunner, FlinkRunner, SparkRunner, and ApexRunner — the central
// promise of the abstraction layer (§II-A). Also pins the runner-specific
// behaviours the paper's methodology depends on: the Spark runner's
// stateful-ParDo rejection and the translated plan shapes of Fig. 13.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/apex_runner.hpp"
#include "beam/runners/direct_runner.hpp"
#include "beam/runners/flink_runner.hpp"
#include "beam/runners/spark_runner.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"

namespace dsps::beam {
namespace {

enum class RunnerKind { kDirect, kFlink, kSpark, kApex };

struct RunnerCase {
  RunnerKind kind;
  int parallelism;
  const char* name;
};

std::unique_ptr<PipelineRunner> make_runner(const RunnerCase& param) {
  switch (param.kind) {
    case RunnerKind::kDirect:
      return std::make_unique<DirectRunner>();
    case RunnerKind::kFlink:
      return std::make_unique<FlinkRunner>(
          FlinkRunnerOptions{.parallelism = param.parallelism});
    case RunnerKind::kSpark:
      return std::make_unique<SparkRunner>(
          SparkRunnerOptions{.parallelism = param.parallelism,
                             .batch_interval_ms = 10});
    case RunnerKind::kApex:
      return std::make_unique<ApexRunner>(
          ApexRunnerOptions{.parallelism = param.parallelism});
  }
  throw std::invalid_argument("unknown runner");
}

void load_topic(kafka::Broker& broker, const std::string& topic, int n) {
  broker.create_topic(topic, kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < n; ++i) {
    broker
        .append({topic, 0},
                kafka::ProducerRecord{.value = "value-" + std::to_string(i)},
                false)
        .status()
        .expect_ok();
  }
}

std::vector<std::string> read_topic(kafka::Broker& broker,
                                    const std::string& topic) {
  std::vector<kafka::StoredRecord> stored;
  broker.fetch({topic, 0}, 0, 1'000'000, stored).status().expect_ok();
  std::vector<std::string> values;
  values.reserve(stored.size());
  for (auto& record : stored) values.push_back(record.value.str());
  return values;
}

class AllRunnersTest : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(AllRunnersTest, IdentityPipelinePreservesEverything) {
  kafka::Broker broker;
  load_topic(broker, "in", 500);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();

  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  auto runner = make_runner(GetParam());
  auto result = pipeline.run(*runner);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  auto values = read_topic(broker, "out");
  std::sort(values.begin(), values.end());
  std::vector<std::string> expected;
  for (int i = 0; i < 500; ++i) expected.push_back("value-" + std::to_string(i));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(values, expected);
}

TEST_P(AllRunnersTest, FilterPipelineSelectsSameSubset) {
  kafka::Broker broker;
  load_topic(broker, "in", 300);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();

  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(Filter<runtime::Payload>::by([](const runtime::Payload& s) {
        return s.view().ends_with("7");
      }))
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  auto runner = make_runner(GetParam());
  ASSERT_TRUE(pipeline.run(*runner).is_ok());

  auto values = read_topic(broker, "out");
  EXPECT_EQ(values.size(), 30u);
  for (const auto& value : values) EXPECT_TRUE(value.ends_with("7"));
}

TEST_P(AllRunnersTest, MapPipelineTransformsEveryElement) {
  kafka::Broker broker;
  load_topic(broker, "in", 200);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();

  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(MapElements<runtime::Payload, runtime::Payload>::via(
          // Zero-copy prefix: slice() shares the broker's storage.
          [](const runtime::Payload& s) { return s.slice(0, 5); }))
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  auto runner = make_runner(GetParam());
  ASSERT_TRUE(pipeline.run(*runner).is_ok());

  auto values = read_topic(broker, "out");
  ASSERT_EQ(values.size(), 200u);
  for (const auto& value : values) EXPECT_EQ(value, "value");
}

INSTANTIATE_TEST_SUITE_P(
    Runners, AllRunnersTest,
    ::testing::Values(RunnerCase{RunnerKind::kDirect, 1, "Direct"},
                      RunnerCase{RunnerKind::kFlink, 1, "FlinkP1"},
                      RunnerCase{RunnerKind::kFlink, 2, "FlinkP2"},
                      RunnerCase{RunnerKind::kSpark, 1, "SparkP1"},
                      RunnerCase{RunnerKind::kSpark, 2, "SparkP2"},
                      RunnerCase{RunnerKind::kApex, 1, "ApexP1"},
                      RunnerCase{RunnerKind::kApex, 2, "ApexP2"}),
    [](const auto& info) { return info.param.name; });

// --- runner-specific behaviours ------------------------------------------------------

/// `on_key`, when set, sees each record's key on the thread that counts it.
Pipeline& stateful_pipeline(
    Pipeline& pipeline, kafka::Broker& broker,
    std::function<void(const std::string&)> on_key = {}) {
  using Keyed = KV<std::string, std::int64_t>;
  struct Counting final
      : StatefulDoFn<std::string, std::int64_t, std::int64_t, std::int64_t> {
    explicit Counting(std::function<void(const std::string&)> on_key)
        : on_key_(std::move(on_key)) {}
    void process_stateful(Context& ctx, std::int64_t& state) override {
      if (on_key_) on_key_(ctx.element().key);
      ctx.output(++state);
    }
    std::function<void(const std::string&)> on_key_;
  };
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(MapElements<runtime::Payload, Keyed>::via(
          [](const runtime::Payload& s) { return Keyed{s.str(), 1}; }))
      .apply(ParDo::of<Keyed, std::int64_t>(
          std::make_shared<Counting>(std::move(on_key))))
      .apply(MapElements<std::int64_t, std::string>::via(
          [](const std::int64_t& n) { return std::to_string(n); }))
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  return pipeline;
}

TEST(SparkRunnerTest, RejectsStatefulParDoLikeBeam23) {
  // §III-B: "Stateful queries are excluded as Apache Beam does not support
  // stateful processing when executed on Apache Spark."
  kafka::Broker broker;
  load_topic(broker, "in", 10);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  stateful_pipeline(pipeline, broker);
  SparkRunner runner;
  EXPECT_EQ(pipeline.run(runner).status().code(), StatusCode::kUnsupported);
}

TEST(FlinkRunnerTest, SupportsStatefulParDo) {
  kafka::Broker broker;
  load_topic(broker, "in", 10);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  stateful_pipeline(pipeline, broker);
  FlinkRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(read_topic(broker, "out").size(), 10u);
}

TEST(FlinkRunnerTest, StatefulParDoSeesEveryRecordOfAKeyInOneSubtask) {
  // The stateful ParDo's input edge is hash-partitioned: every record of a
  // key reaches the one subtask that owns the key. Key k occurs 20 * (k + 1)
  // times, spread over four input partitions. Flink-sim runs each subtask
  // on its own thread, so a key split across subtasks shows up as a key
  // counted on more than one thread.
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 4}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  std::vector<std::string> expected;
  int next_partition = 0;
  for (int key = 0; key < 5; ++key) {
    const int occurrences = 20 * (key + 1);
    for (int n = 1; n <= occurrences; ++n) {
      broker
          .append({"in", next_partition++ % 4},
                  kafka::ProducerRecord{.value = "key-" + std::to_string(key)},
                  false)
          .status()
          .expect_ok();
      expected.push_back(std::to_string(n));
    }
  }
  std::mutex mutex;
  std::map<std::string, std::set<std::thread::id>> threads_of_key;
  Pipeline pipeline;
  stateful_pipeline(pipeline, broker, [&](const std::string& key) {
    std::lock_guard lock(mutex);
    threads_of_key[key].insert(std::this_thread::get_id());
  });
  FlinkRunner runner(FlinkRunnerOptions{.parallelism = 4});
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  ASSERT_EQ(threads_of_key.size(), 5u);
  for (const auto& [key, threads] : threads_of_key) {
    EXPECT_EQ(threads.size(), 1u) << key << " was counted on several subtasks";
  }
  // Each key emits its running counts 1..occurrences, so its largest count
  // equals its number of occurrences.
  auto values = read_topic(broker, "out");
  std::sort(values.begin(), values.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(values, expected);
}

TEST(ApexRunnerTest, SupportsStatefulParDo) {
  kafka::Broker broker;
  load_topic(broker, "in", 10);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  stateful_pipeline(pipeline, broker);
  ApexRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(read_topic(broker, "out").size(), 10u);
}

TEST(FlinkRunnerTest, TranslatedPlanMatchesFig13Shape) {
  kafka::Broker broker;
  load_topic(broker, "in", 1);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(Filter<runtime::Payload>::by(
          [](const runtime::Payload& s) {
            return s.view().find("test") != std::string_view::npos;
          },
          "Grep"))
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  FlinkRunner runner;
  auto plan = runner.translate_plan(pipeline);
  ASSERT_TRUE(plan.is_ok());
  // Fig. 13: an UnknownRawPTransform source, a Flat Map, and 5 RawParDos;
  // no dedicated data sink.
  EXPECT_NE(plan.value().find("PTransformTranslation.UnknownRawPTransform"),
            std::string::npos);
  EXPECT_NE(plan.value().find("Flat Map"), std::string::npos);
  std::size_t rawpardo_count = 0;
  std::size_t pos = 0;
  while ((pos = plan.value().find("ParDoTranslation.RawParDo", pos)) !=
         std::string::npos) {
    ++rawpardo_count;
    pos += 1;
  }
  EXPECT_EQ(rawpardo_count, 5u);
  EXPECT_EQ(plan.value().find("Data Sink"), std::string::npos);
}

TEST(ApexRunnerTest, TranslatedPlanDeploysOneContainerPerOperator) {
  kafka::Broker broker;
  load_topic(broker, "in", 1);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  ApexRunner runner;
  auto plan = runner.translate_plan(pipeline);
  ASSERT_TRUE(plan.is_ok());
  // 6 transforms (read, flat map, withoutMetadata, Values, ToProducerRecord,
  // KafkaWriter) => 6 containers, serialized NODE_LOCAL hops between them.
  EXPECT_NE(plan.value().find("Container 5"), std::string::npos);
  EXPECT_NE(plan.value().find("NODE_LOCAL"), std::string::npos);
}

TEST(FlinkRunnerTest, RunReportsPlanAndMetrics) {
  kafka::Broker broker;
  load_topic(broker, "in", 25);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  FlinkRunner runner;
  auto result = pipeline.run(runner);
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result.value().execution_plan.empty());
  EXPECT_EQ(result.value().elements_in.at("KafkaIO.Read/WithoutMetadata"),
            25u);
  EXPECT_GT(result.value().duration_ms, 0.0);
}

TEST(AllRunnersDeathTest, EmptyPipelineRejectedEverywhere) {
  Pipeline pipeline;
  for (auto kind : {RunnerKind::kDirect, RunnerKind::kFlink,
                    RunnerKind::kSpark, RunnerKind::kApex}) {
    auto runner = make_runner(RunnerCase{kind, 1, ""});
    EXPECT_EQ(pipeline.run(*runner).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(SparkRunnerTest, PipelineWithoutTerminalTransformRejected) {
  kafka::Broker broker;
  load_topic(broker, "in", 5);
  Pipeline pipeline;
  // Read-only pipeline: the read expansion's flat map has a consumer-less
  // tail, but registering it as "output" is fine — only a pipeline with no
  // nodes at all, or no terminal, is an error. Construct the no-node case:
  Pipeline empty;
  SparkRunner runner;
  EXPECT_EQ(empty.run(runner).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(FlinkRunnerTest, BundleSizeDoesNotAffectResults) {
  // Bundle policy is a pure performance knob; outputs must be identical.
  std::vector<std::vector<std::string>> outputs;
  for (const std::size_t bundle : {std::size_t{1}, std::size_t{7},
                                   std::size_t{1000}}) {
    kafka::Broker broker;
    load_topic(broker, "in", 250);
    broker.create_topic("out", kafka::TopicConfig{.partitions = 1})
        .expect_ok();
    Pipeline pipeline;
    pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
        .apply(KafkaIO::without_metadata())
        .apply(Values<runtime::Payload>::create<runtime::Payload>())
        .apply(Filter<runtime::Payload>::by([](const runtime::Payload& s) {
          return s.size() % 3 != 0;
        }))
        .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
    FlinkRunner runner(
        FlinkRunnerOptions{.parallelism = 1, .bundle_size = bundle});
    ASSERT_TRUE(pipeline.run(runner).is_ok());
    auto values = read_topic(broker, "out");
    std::sort(values.begin(), values.end());
    outputs.push_back(std::move(values));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[1], outputs[2]);
}

/// read -> a -> {b -> sink, c -> sink}. On the Flink runner `a` has two
/// out-edges, so b and c share each of its element boxes; neither may
/// recycle a box the other still reads. Returns the sorted outputs of b
/// and c.
std::vector<std::vector<std::string>> run_fan_out(const RunnerCase& param) {
  kafka::Broker broker;
  load_topic(broker, "in", 3000);
  for (const char* topic : {"out-b", "out-c"}) {
    broker.create_topic(topic, kafka::TopicConfig{.partitions = 1})
        .expect_ok();
  }
  Pipeline pipeline;
  auto a =
      pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
          .apply(KafkaIO::without_metadata())
          .apply(Values<runtime::Payload>::create<runtime::Payload>())
          .apply(MapElements<runtime::Payload, runtime::Payload>::via(
              [](const runtime::Payload& s) { return s.slice(6, s.size()); },
              "a"));
  a.apply(MapElements<runtime::Payload, std::string>::via(
           [](const runtime::Payload& s) { return "b:" + s.str(); }, "b"))
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out-b"}));
  a.apply(MapElements<runtime::Payload, std::string>::via(
           [](const runtime::Payload& s) {
             std::string reversed(s.view().rbegin(), s.view().rend());
             return "c:" + reversed;
           },
           "c"))
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out-c"}));
  auto runner = make_runner(param);
  const auto result = pipeline.run(*runner);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  std::vector<std::vector<std::string>> outputs;
  for (const char* topic : {"out-b", "out-c"}) {
    auto values = read_topic(broker, topic);
    std::sort(values.begin(), values.end());
    outputs.push_back(std::move(values));
  }
  return outputs;
}

TEST(FlinkRunnerTest, FanOutConsumersNeverShareARecycledBox) {
  const auto expected = run_fan_out({RunnerKind::kDirect, 1, ""});
  ASSERT_EQ(expected[0].size(), 3000u);
  ASSERT_EQ(expected[1].size(), 3000u);
  for (const int parallelism : {1, 2}) {
    EXPECT_EQ(run_fan_out({RunnerKind::kFlink, parallelism, ""}), expected)
        << "parallelism " << parallelism;
  }
}

/// Yields 0..count-1 and counts the records it has handed out.
class CountingReader final : public SourceReader {
 public:
  CountingReader(std::int64_t count, std::atomic<int>& advances)
      : count_(count), advances_(advances) {}
  bool advance(Element& out) override {
    if (next_ >= count_) return false;
    out = make_element<std::int64_t>(next_++);
    advances_.fetch_add(1);
    return true;
  }

 private:
  std::int64_t count_;
  std::int64_t next_ = 0;
  std::atomic<int>& advances_;
};

TEST(SparkRunnerTest, BoundedSourceIsReadInsideTheTask) {
  // Beam's SourceRDD.Bounded reads inside the task: the first stage sees
  // its first element after one read, not after the whole shard.
  struct FirstSeen final : DoFn<std::int64_t, std::int64_t> {
    FirstSeen(const std::atomic<int>& advances, int& seen)
        : advances(advances), seen(seen) {}
    void process(ProcessContext& context) override {
      if (seen < 0) seen = advances.load();
      context.output(context.element());
    }
    const std::atomic<int>& advances;
    int& seen;
  };
  static constexpr int kRecords = 500;
  std::atomic<int> advances{0};
  int seen = -1;
  Pipeline pipeline;
  pipeline
      .apply(ReadTransform<std::int64_t>(
          [&advances](int /*shard*/, int /*num_shards*/)
              -> std::unique_ptr<SourceReader> {
            return std::make_unique<CountingReader>(kRecords, advances);
          },
          "CountingSource"))
      .apply(ParDo::of<std::int64_t, std::int64_t>(
          std::make_shared<FirstSeen>(advances, seen), "FirstSeen"));
  auto& global = runtime::MetricsRegistry::global();
  const auto before = global.snapshot();
  SparkRunner runner(SparkRunnerOptions{.batch_interval_ms = 10});
  const auto result = pipeline.run(runner);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(advances.load(), kRecords);
  EXPECT_EQ(result.value().elements_in.at("FirstSeen"),
            static_cast<std::uint64_t>(kRecords));
  // The batch reports the records its tasks read.
  EXPECT_EQ(global.snapshot().counter("spark.input.records") -
                before.counter("spark.input.records"),
            static_cast<std::uint64_t>(kRecords));
}

TEST(SparkRunnerTest, BoundedSourceRetryReplaysTheSlice) {
  // A fault after the batch's outputs ran: the retry re-reads the source
  // split (P1) or the source shuffle's output (P2), so every record is
  // written twice, and the replay is counted once.
  constexpr int kRecords = 600;
  for (const int parallelism : {1, 2}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    kafka::Broker broker;
    broker.create_topic("in", kafka::TopicConfig{.partitions = 2})
        .expect_ok();
    for (int i = 0; i < kRecords; ++i) {
      broker
          .append({"in", i % 2},
                  kafka::ProducerRecord{.value = "value-" + std::to_string(i)},
                  false)
          .status()
          .expect_ok();
    }
    broker.create_topic("out", kafka::TopicConfig{.partitions = 1})
        .expect_ok();
    Pipeline pipeline;
    pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
        .apply(KafkaIO::without_metadata())
        .apply(Values<runtime::Payload>::create<runtime::Payload>())
        .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));

    auto& injector = runtime::FaultInjector::instance();
    // after_hits = 1 plus one burned hit: the rule strikes the first batch.
    injector.arm(7, {runtime::FaultRule{
                        .point = runtime::FaultPoint::kOperatorThrow,
                        .site = "spark.batch",
                        .after_hits = 1,
                        .times = 1}});
    injector.maybe_throw(runtime::FaultPoint::kOperatorThrow, "spark.batch");
    auto& global = runtime::MetricsRegistry::global();
    const auto before = global.snapshot();
    SparkRunner runner(SparkRunnerOptions{
        .parallelism = parallelism,
        .batch_interval_ms = 10,
        .restart = RestartHint{.max_restarts = 1}});
    const auto result = pipeline.run(runner);
    const std::uint64_t injected = injector.injected_count();
    injector.disarm();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(injected, 1u);

    std::map<std::string, int> copies;
    for (const auto& value : read_topic(broker, "out")) ++copies[value];
    ASSERT_EQ(copies.size(), static_cast<std::size_t>(kRecords));
    for (const auto& [value, count] : copies) {
      EXPECT_EQ(count, 2) << value;
    }
    const auto after = global.snapshot();
    const auto delta = [&](const char* name) {
      return after.counter(name) - before.counter(name);
    };
    EXPECT_EQ(delta("spark.recovery.batch_retries"), 1u);
    EXPECT_EQ(delta("spark.recovery.replayed_records"),
              static_cast<std::uint64_t>(kRecords));
    EXPECT_EQ(delta("spark.input.records"),
              static_cast<std::uint64_t>(kRecords));
  }
}

TEST(RunnerEquivalenceTest, AllRunnersAgreeWithDirectReference) {
  // One fixture, five runners, byte-identical sorted outputs.
  std::vector<std::vector<std::string>> outputs;
  for (auto param :
       {RunnerCase{RunnerKind::kDirect, 1, ""},
        RunnerCase{RunnerKind::kFlink, 2, ""},
        RunnerCase{RunnerKind::kSpark, 2, ""},
        RunnerCase{RunnerKind::kApex, 2, ""}}) {
    kafka::Broker broker;
    load_topic(broker, "in", 400);
    broker.create_topic("out", kafka::TopicConfig{.partitions = 1})
        .expect_ok();
    Pipeline pipeline;
    pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
        .apply(KafkaIO::without_metadata())
        .apply(Values<runtime::Payload>::create<runtime::Payload>())
        // Payload -> std::string map exercises the runner's string path and
        // the KafkaIO::write string-compat overload downstream.
        .apply(MapElements<runtime::Payload, std::string>::via(
            [](const runtime::Payload& s) { return s.str() + "|x"; }))
        .apply(Filter<std::string>::by([](const std::string& s) {
          return s.size() % 2 == 0;
        }))
        .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
    auto runner = make_runner(param);
    ASSERT_TRUE(pipeline.run(*runner).is_ok());
    auto values = read_topic(broker, "out");
    std::sort(values.begin(), values.end());
    outputs.push_back(std::move(values));
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i], outputs[0]) << "runner " << i << " diverged";
  }
}

}  // namespace
}  // namespace dsps::beam
