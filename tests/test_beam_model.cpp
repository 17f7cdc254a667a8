// Tests for the Beam-sim model: coders, the window envelope, DoFn
// lifecycle, and the core transforms (ParDo, MapElements, FlatMapElements,
// Filter, Values) executed on the DirectRunner reference.
#include <gtest/gtest.h>

#include <mutex>

#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/direct_runner.hpp"

namespace dsps::beam {
namespace {

/// Sink DoFn collecting values into shared storage (thread-safe).
template <typename T>
class CollectSink final : public DoFn<T, std::int64_t> {
 public:
  struct Storage {
    std::mutex mutex;
    std::vector<T> values;
  };

  explicit CollectSink(std::shared_ptr<Storage> storage)
      : storage_(std::move(storage)) {}

  void process(typename DoFn<T, std::int64_t>::ProcessContext& ctx) override {
    std::lock_guard lock(storage_->mutex);
    storage_->values.push_back(ctx.element());
  }

 private:
  std::shared_ptr<Storage> storage_;
};

template <typename T>
std::pair<DoFnPtr<T, std::int64_t>,
          std::shared_ptr<typename CollectSink<T>::Storage>>
make_collector() {
  auto storage = std::make_shared<typename CollectSink<T>::Storage>();
  return {std::make_shared<CollectSink<T>>(storage), storage};
}

std::vector<std::string> strings(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back("s" + std::to_string(i));
  return out;
}

// --- coders -------------------------------------------------------------------

template <typename T>
T coder_round_trip(const CoderPtr& coder, const T& value) {
  Bytes bytes;
  BinaryWriter writer(bytes);
  coder->encode(Value{value}, writer);
  BinaryReader reader(bytes);
  return coder->decode(reader).get<T>();
}

TEST(CoderTest, StringRoundTrip) {
  const auto coder = CoderTraits<std::string>::of();
  EXPECT_EQ(coder_round_trip<std::string>(coder, "hello\tworld"),
            "hello\tworld");
  EXPECT_EQ(coder_round_trip<std::string>(coder, ""), "");
}

TEST(CoderTest, VarIntRoundTrip) {
  const auto coder = CoderTraits<std::int64_t>::of();
  for (const std::int64_t v : {0L, -1L, 42L, (long)INT64_MAX, (long)INT64_MIN}) {
    EXPECT_EQ(coder_round_trip<std::int64_t>(coder, v), v);
  }
}

TEST(CoderTest, KvCoderRoundTrip) {
  const auto coder = CoderTraits<KV<std::string, std::int64_t>>::of();
  const KV<std::string, std::int64_t> kv{"key", 77};
  EXPECT_EQ((coder_round_trip<KV<std::string, std::int64_t>>(coder, kv)), kv);
}

TEST(CoderTest, KafkaRecordCoderRoundTrip) {
  const auto coder = CoderTraits<KafkaRecord>::of();
  const KafkaRecord record{.topic = "t",
                           .partition = 3,
                           .offset = 99,
                           .timestamp = 123456,
                           .key = "k",
                           .value = "v"};
  EXPECT_EQ(coder_round_trip<KafkaRecord>(coder, record), record);
}

TEST(CoderTest, WindowedValueCoderPreservesMetadata) {
  const WindowedValueCoder coder(CoderTraits<std::string>::of());
  Element element = make_element<std::string>("payload", 4200);
  element.windows = BoundedWindow{1000, 2000};
  element.pane = PaneInfo{.is_first = false, .is_last = true, .index = 3};
  const Element restored = coder.decode(coder.encode(element));
  EXPECT_EQ(element_value<std::string>(restored), "payload");
  EXPECT_EQ(restored.timestamp, 4200);
  EXPECT_EQ(restored.windows, element.windows);
  EXPECT_FALSE(restored.pane.is_first);
  EXPECT_TRUE(restored.pane.is_last);
  EXPECT_EQ(restored.pane.index, 3);
}

// --- windowing -----------------------------------------------------------------

TEST(WindowTest, GlobalWindowIsDefault) {
  const Element element = make_element<int>(1);
  EXPECT_EQ(element.windows, global_window());
}

// --- DoFn lifecycle ---------------------------------------------------------------

TEST(DoFnTest, LifecycleOrder) {
  struct Recording final : DoFn<std::string, std::string> {
    std::vector<std::string>* log;
    explicit Recording(std::vector<std::string>* log_ptr) : log(log_ptr) {}
    void setup() override { log->push_back("setup"); }
    void start_bundle() override { log->push_back("start_bundle"); }
    void process(ProcessContext& ctx) override {
      log->push_back("process:" + ctx.element());
    }
    void finish_bundle(
        const std::function<void(std::string)>&) override {
      log->push_back("finish_bundle");
    }
    void teardown() override { log->push_back("teardown"); }
  };
  std::vector<std::string> log;
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of({"a", "b"}))
      .apply(ParDo::of<std::string, std::string>(
          std::make_shared<Recording>(&log)));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(log, (std::vector<std::string>{"setup", "start_bundle",
                                           "process:a", "process:b",
                                           "finish_bundle", "teardown"}));
}

TEST(DoFnTest, BundleBoundariesRestartBundles) {
  struct Counting final : DoFn<std::string, std::string> {
    int* bundles;
    explicit Counting(int* b) : bundles(b) {}
    void process(ProcessContext&) override {}
    void start_bundle() override { ++*bundles; }
  };
  int bundles = 0;
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of(strings(25)))
      .apply(ParDo::of<std::string, std::string>(
          std::make_shared<Counting>(&bundles)));
  DirectRunner runner(DirectRunnerOptions{.bundle_size = 10});
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  // Initial bundle + restarts after elements 10 and 20.
  EXPECT_EQ(bundles, 3);
}

TEST(DoFnTest, OutputWithTimestampOverrides) {
  auto [sink, storage] = make_collector<std::int64_t>();
  struct Stamper final : DoFn<std::string, std::int64_t> {
    void process(ProcessContext& ctx) override {
      ctx.output_with_timestamp(99, 1234);
    }
  };
  Pipeline pipeline;
  auto stamped = pipeline.apply(Create<std::string>::of({"x"}))
                     .apply(ParDo::of<std::string, std::int64_t>(
                         std::make_shared<Stamper>()));
  // Verify through a second DoFn observing the timestamp.
  struct Check final : DoFn<std::int64_t, std::int64_t> {
    Timestamp* seen;
    explicit Check(Timestamp* s) : seen(s) {}
    void process(ProcessContext& ctx) override { *seen = ctx.timestamp(); }
  };
  Timestamp seen = 0;
  stamped.apply(ParDo::of<std::int64_t, std::int64_t>(
      std::make_shared<Check>(&seen)));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(seen, 1234);
}

// --- core transforms -----------------------------------------------------------------

TEST(TransformTest, MapElements) {
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of({"a", "b", "c"}))
      .apply(MapElements<std::string, std::string>::via(
          [](const std::string& s) { return s + "!"; }))
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::string>{"a!", "b!", "c!"}));
}

TEST(TransformTest, FilterKeepsMatching) {
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of({"keep-1", "drop", "keep-2"}))
      .apply(Filter<std::string>::by([](const std::string& s) {
        return s.starts_with("keep");
      }))
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::string>{"keep-1", "keep-2"}));
}

TEST(TransformTest, FlatMapEmitsMany) {
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of({"ab", "c"}))
      .apply(FlatMapElements<std::string, std::string>::via(
          [](const std::string& s, const std::function<void(std::string)>& out) {
            for (const char c : s) out(std::string(1, c));
          }))
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TransformTest, ValuesDropsKeys) {
  using InKv = KV<std::string, std::string>;
  auto [sink, storage] = make_collector<std::string>();
  Pipeline pipeline;
  pipeline.apply(Create<InKv>::of({{"k1", "v1"}, {"k2", "v2"}}))
      .apply(Values<std::string>::create<std::string>())
      .apply(ParDo::of<std::string, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::string>{"v1", "v2"}));
}

TEST(TransformTest, StatefulDoFnAccumulatesPerKey) {
  using InKv = KV<std::string, std::int64_t>;
  struct RunningMax final : StatefulDoFn<std::string, std::int64_t,
                                         std::int64_t, std::int64_t> {
    void process_stateful(Context& ctx, std::int64_t& state) override {
      state = std::max(state, ctx.element().value);
      ctx.output(state);
    }
  };
  auto fn = std::make_shared<RunningMax>();
  auto [sink, storage] = make_collector<std::int64_t>();
  Pipeline pipeline;
  pipeline
      .apply(Create<InKv>::of({{"a", 3}, {"a", 1}, {"b", 7}, {"a", 5},
                               {"b", 2}}))
      .apply(ParDo::of<InKv, std::int64_t>(fn))
      .apply(ParDo::of<std::int64_t, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(storage->values, (std::vector<std::int64_t>{3, 3, 7, 5, 7}));
  int keys = 0;
  fn->for_each_state([&keys](const std::string&, const std::int64_t&) {
    ++keys;
  });
  EXPECT_EQ(keys, 2);
}

TEST(TransformTest, PipelineMetricsCountElements) {
  Pipeline pipeline;
  pipeline.apply(Create<std::string>::of(strings(42), "Source"))
      .apply(Filter<std::string>::by(
          [](const std::string&) { return true; }, "Keep"));
  DirectRunner runner;
  auto result = pipeline.run(runner);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().elements_in.at("Source"), 42u);
  EXPECT_EQ(result.value().elements_in.at("Keep"), 42u);
}

TEST(TransformTest, EmptyPipelineFails) {
  Pipeline pipeline;
  DirectRunner runner;
  EXPECT_EQ(pipeline.run(runner).status().code(),
            StatusCode::kFailedPrecondition);
}

// --- KafkaIO expansion shape -----------------------------------------------------------

TEST(KafkaIoTest, ReadExpandsToSourcePlusFlatMap) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}));
  const auto& nodes = pipeline.graph().nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0].kind, TransformKind::kRead);
  EXPECT_EQ(nodes[1].urn, urns::kReadExpand);
}

TEST(KafkaIoTest, FullQueryPipelineHasSevenNodes) {
  // The Fig. 13 shape: source + flat map + 5 ParDos (withoutMetadata,
  // Values, logic, ToProducerRecord, KafkaWriter).
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  auto records =
      pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}));
  auto kvs = records.apply(KafkaIO::without_metadata());
  auto values = kvs.apply(Values<runtime::Payload>::create<runtime::Payload>());
  auto filtered = values.apply(Filter<runtime::Payload>::by(
      [](const runtime::Payload& s) {
        return s.view().find("test") != std::string_view::npos;
      },
      "Grep"));
  filtered.apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  EXPECT_EQ(pipeline.graph().nodes().size(), 7u);
}

TEST(KafkaIoTest, ReadToWriteOnDirectRunner) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 50; ++i) {
    broker.append({"in", 0},
                  kafka::ProducerRecord{.key = "k" + std::to_string(i),
                                        .value = "v" + std::to_string(i)},
                  false)
        .status()
        .expect_ok();
  }
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<runtime::Payload>::create<runtime::Payload>())
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  EXPECT_EQ(broker.end_offset({"out", 0}).value(), 50);
  std::vector<kafka::StoredRecord> out;
  broker.fetch({"out", 0}, 0, 100, out).status().expect_ok();
  EXPECT_EQ(out[0].value, "v0");
  EXPECT_EQ(out[49].value, "v49");
}

TEST(KafkaIoTest, WithoutMetadataKeepsKeyAndValue) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.append({"in", 0},
                kafka::ProducerRecord{.key = "the-key", .value = "the-value"},
                false)
      .status()
      .expect_ok();
  using OutKv = KV<runtime::Payload, runtime::Payload>;
  auto [sink, storage] = make_collector<OutKv>();
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(ParDo::of<OutKv, std::int64_t>(sink));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  ASSERT_EQ(storage->values.size(), 1u);
  EXPECT_EQ(storage->values[0].key, "the-key");
  EXPECT_EQ(storage->values[0].value, "the-value");
}

TEST(KafkaIoTest, ReadStampsElementsWithBrokerTimestamps) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.append({"in", 0}, kafka::ProducerRecord{.value = "x"}, false)
      .status()
      .expect_ok();
  struct Check final : DoFn<KafkaRecord, std::int64_t> {
    Timestamp* seen;
    explicit Check(Timestamp* s) : seen(s) {}
    void process(ProcessContext& ctx) override { *seen = ctx.timestamp(); }
  };
  Timestamp seen = 0;
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(ParDo::of<KafkaRecord, std::int64_t>(
          std::make_shared<Check>(&seen)));
  DirectRunner runner;
  ASSERT_TRUE(pipeline.run(runner).is_ok());
  std::vector<kafka::StoredRecord> stored;
  broker.fetch({"in", 0}, 0, 1, stored).status().expect_ok();
  EXPECT_EQ(seen, stored[0].timestamp);
}

}  // namespace
}  // namespace dsps::beam
