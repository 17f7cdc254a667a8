// Fusion pass tests: the graph rewrite (maximal chains, every barrier), the
// fused composite executor, the translated plan shapes with fusion opted
// in, and the correctness contract the optimizer must honour — fused
// pipelines produce byte-identical output to unfused ones and to the
// DirectRunner reference, for every query shape on every engine runner, and
// stay at-least-once when an operator throws mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "beam/fusion.hpp"
#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/apex_runner.hpp"
#include "beam/runners/direct_runner.hpp"
#include "beam/runners/flink_runner.hpp"
#include "beam/runners/spark_runner.hpp"
#include "queries/query_factory.hpp"
#include "runtime/fault.hpp"
#include "workload/streambench.hpp"

namespace dsps::beam {
namespace {

using runtime::Payload;

void load_topic(kafka::Broker& broker, const std::string& topic, int n) {
  broker.create_topic(topic, kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < n; ++i) {
    // Tab-separated rows; every 7th contains the Grep needle.
    const std::string value = (i % 7 == 0 ? "a test row " : "a plain row ") +
                              std::to_string(i) + "\tsecond-col";
    broker.append({topic, 0}, kafka::ProducerRecord{.value = value}, false)
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
  std::sort(values.begin(), values.end());
  return values;
}

// --- graph rewrite -----------------------------------------------------------

TransformNode pardo_node(std::string name, int input) {
  TransformNode node;
  node.kind = TransformKind::kParDo;
  node.name = std::move(name);
  node.urn = urns::kParDo;
  node.input = input;
  return node;
}

TransformNode read_node() {
  TransformNode node;
  node.kind = TransformKind::kRead;
  node.name = "Read";
  node.urn = urns::kRead;
  return node;
}

bool any_stage_contains(const FusionResult& result, const std::string& name) {
  for (const auto& stage : result.stages) {
    for (const auto& member : stage.members) {
      if (member == name) return true;
    }
  }
  return false;
}

TEST(FusionPassTest, FusibleRequiresPlainParDo) {
  EXPECT_TRUE(fusible(pardo_node("a", 0)));
  EXPECT_FALSE(fusible(read_node()));

  TransformNode stateful = pardo_node("s", 0);
  stateful.stateful = true;
  EXPECT_FALSE(fusible(stateful));

  TransformNode keyed = pardo_node("k", 0);
  keyed.key_hash = [](const Element&) { return std::uint64_t{0}; };
  EXPECT_FALSE(fusible(keyed));
}

TEST(FusionPassTest, IdentityPipelineCollapsesToSourceFusedSink) {
  kafka::Broker broker;
  load_topic(broker, "in", 1);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<Payload>::create<Payload>())
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));

  // 6 transforms: read, flat map, withoutMetadata, Values, ToProducerRecord,
  // KafkaWriter. Everything between the source and the terminal writer is a
  // chain of one-to-one ParDos => exactly one fused stage of 4 members.
  const FusionResult result = fuse_graph(pipeline.graph());
  EXPECT_EQ(result.original_node_count, 6u);
  ASSERT_EQ(result.node_count(), 3u);
  EXPECT_EQ(result.nodes_eliminated(), 3u);
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_EQ(result.stages[0].members.size(), 4u);

  const auto& nodes = result.graph.nodes();
  EXPECT_EQ(nodes[0].kind, TransformKind::kRead);
  EXPECT_EQ(nodes[1].urn, urns::kFused);
  EXPECT_TRUE(nodes[1].name.starts_with("Fused[")) << nodes[1].name;
  EXPECT_EQ(nodes[1].input, 0);
  EXPECT_EQ(nodes[2].input, 1);
  // The fused stage reports the tail's output coder so a serializing runner
  // still encodes the correct type at the fused boundary.
  EXPECT_EQ(nodes[1].output_coder != nullptr,
            pipeline.graph().nodes()[4].output_coder != nullptr);
}

TEST(FusionPassTest, DivergingConsumersAreABarrier) {
  // read -> a -> {b, c}: `a` has two consumers, so nothing may fuse with
  // it; b and c only feed terminals, so no chain forms anywhere.
  BeamGraph diverging;
  const int read = diverging.add_node(read_node());
  const int a = diverging.add_node(pardo_node("a", read));
  const int b = diverging.add_node(pardo_node("b", a));
  const int c = diverging.add_node(pardo_node("c", a));
  diverging.add_node(pardo_node("sink-b", b));
  diverging.add_node(pardo_node("sink-c", c));

  const FusionResult result = fuse_graph(diverging);
  EXPECT_EQ(result.nodes_eliminated(), 0u);
  EXPECT_TRUE(result.stages.empty());

  // Control: the same chain without the second consumer fuses.
  BeamGraph linear;
  const int lread = linear.add_node(read_node());
  TransformNode la = pardo_node("a", lread);
  TransformNode lb;
  la.stage = [] { return nullptr; };
  lb = pardo_node("b", 1);
  lb.stage = [] { return nullptr; };
  linear.add_node(std::move(la));
  linear.add_node(std::move(lb));
  linear.add_node(pardo_node("sink", 2));
  const FusionResult fused = fuse_graph(linear);
  ASSERT_EQ(fused.stages.size(), 1u);
  EXPECT_EQ(fused.stages[0].members,
            (std::vector<std::string>{"a", "b"}));
}

TEST(FusionPassTest, ParallelismChangeIsABarrier) {
  // read -> a(p=1) -> b(p=2) -> c(p=2) -> sink: the p=1 -> p=2 edge is a
  // redistribution point, so `a` stays alone while b+c fuse.
  BeamGraph graph;
  const int read = graph.add_node(read_node());
  TransformNode a = pardo_node("a", read);
  a.parallelism_hint = 1;
  TransformNode b = pardo_node("b", 1);
  b.parallelism_hint = 2;
  b.stage = [] { return nullptr; };
  TransformNode c = pardo_node("c", 2);
  c.parallelism_hint = 2;
  c.stage = [] { return nullptr; };
  graph.add_node(std::move(a));
  graph.add_node(std::move(b));
  graph.add_node(std::move(c));
  graph.add_node(pardo_node("sink", 3));

  const FusionResult result = fuse_graph(graph);
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_EQ(result.stages[0].members,
            (std::vector<std::string>{"b", "c"}));
  EXPECT_FALSE(any_stage_contains(result, "a"));
}

TEST(FusionPassTest, StatefulParDoIsABarrier) {
  // read -> a -> s(stateful) -> b -> sink: `s` splits the chain and both
  // remaining fragments are single transforms, so nothing fuses.
  BeamGraph graph;
  const int read = graph.add_node(read_node());
  graph.add_node(pardo_node("a", read));
  TransformNode s = pardo_node("s", 1);
  s.stateful = true;
  graph.add_node(std::move(s));
  graph.add_node(pardo_node("b", 2));
  graph.add_node(pardo_node("sink", 3));

  const FusionResult result = fuse_graph(graph);
  EXPECT_EQ(result.nodes_eliminated(), 0u);
  EXPECT_TRUE(result.stages.empty());
  // Input wiring survives the (identity) rewrite.
  EXPECT_EQ(result.graph.nodes()[2].input, 1);
}

// --- fused composite executor ------------------------------------------------

/// Buffers every element; flushes the buffer on bundle_boundary / finish.
class BufferingStage final : public StageExecutor {
 public:
  void process(const Element& element, const Emit& /*emit*/) override {
    buffer_.push_back(element);
  }
  void bundle_boundary(const Emit& emit) override { flush(emit); }
  void finish(const Emit& emit) override { flush(emit); }

 private:
  void flush(const Emit& emit) {
    for (auto& element : buffer_) emit(std::move(element));
    buffer_.clear();
  }
  std::vector<Element> buffer_;
};

/// Appends a suffix to string elements as they pass through.
class SuffixStage final : public StageExecutor {
 public:
  explicit SuffixStage(std::string suffix) : suffix_(std::move(suffix)) {}
  void process(const Element& element, const Emit& emit) override {
    Element out = element;
    out.value = element_value<std::string>(element) + suffix_;
    emit(std::move(out));
  }
  void finish(const Emit& /*emit*/) override {}

 private:
  std::string suffix_;
};

/// Emits each element twice (fan-out inside a fused chain).
class DuplicateStage final : public StageExecutor {
 public:
  void process(const Element& element, const Emit& emit) override {
    Element first = element;
    Element second = element;
    emit(std::move(first));
    emit(std::move(second));
  }
  void finish(const Emit& /*emit*/) override {}
};

Element string_element(std::string value) {
  Element element;
  element.value = std::move(value);
  return element;
}

TEST(FusedStageExecutorTest, DrivesMembersByDirectCallsInOrder) {
  const StageFactory factory = fused_stage(
      {[] { return std::make_unique<DuplicateStage>(); },
       [] { return std::make_unique<SuffixStage>("-x"); }});
  auto executor = factory();
  executor->start();
  std::vector<std::string> outputs;
  const Emit collect = [&outputs](Element&& element) {
    outputs.push_back(element_value<std::string>(element));
  };
  executor->process(string_element("a"), collect);
  executor->process(string_element("b"), collect);
  executor->finish(collect);
  EXPECT_EQ(outputs,
            (std::vector<std::string>{"a-x", "a-x", "b-x", "b-x"}));
}

TEST(FusedStageExecutorTest, FinishCascadesThroughDownstreamMembers) {
  // Elements a buffering member flushes at finish() must still pass through
  // the members *after* it in the chain — the cascade runs in chain order.
  const StageFactory factory = fused_stage(
      {[] { return std::make_unique<BufferingStage>(); },
       [] { return std::make_unique<SuffixStage>("-late"); }});
  auto executor = factory();
  executor->start();
  std::vector<std::string> outputs;
  const Emit collect = [&outputs](Element&& element) {
    outputs.push_back(element_value<std::string>(element));
  };
  executor->process(string_element("a"), collect);
  executor->process(string_element("b"), collect);
  EXPECT_TRUE(outputs.empty()) << "buffering member leaked early";
  executor->bundle_boundary(collect);
  EXPECT_EQ(outputs, (std::vector<std::string>{"a-late", "b-late"}));
  executor->process(string_element("c"), collect);
  executor->finish(collect);
  EXPECT_EQ(outputs,
            (std::vector<std::string>{"a-late", "b-late", "c-late"}));
}

// --- translated plans with fusion on -----------------------------------------

Pipeline& grep_pipeline(Pipeline& pipeline, kafka::Broker& broker) {
  pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
      .apply(KafkaIO::without_metadata())
      .apply(Values<Payload>::create<Payload>())
      .apply(Filter<Payload>::by(
          [](const Payload& s) {
            return workload::grep_matches(s.view());
          },
          "Grep"))
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  return pipeline;
}

TEST(FlinkRunnerFusionTest, FusedPlanCollapsesTheRawParDoChain) {
  kafka::Broker broker;
  load_topic(broker, "in", 1);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  grep_pipeline(pipeline, broker);
  FlinkRunner runner(
      FlinkRunnerOptions{.parallelism = 1, .fuse_stages = true});
  auto plan = runner.translate_plan(pipeline);
  ASSERT_TRUE(plan.is_ok());
  // Fig. 13's chain of 5 standalone RawParDos collapses to one fused stage;
  // the only RawParDo left is the terminal KafkaWriter (a sink barrier).
  EXPECT_NE(plan.value().find("Fused["), std::string::npos) << plan.value();
  std::size_t rawpardo_count = 0;
  std::size_t pos = 0;
  while ((pos = plan.value().find("ParDoTranslation.RawParDo", pos)) !=
         std::string::npos) {
    ++rawpardo_count;
    pos += 1;
  }
  EXPECT_EQ(rawpardo_count, 1u) << plan.value();
}

TEST(ApexRunnerFusionTest, FusedPlanDeploysFewerContainers) {
  kafka::Broker broker;
  load_topic(broker, "in", 1);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  grep_pipeline(pipeline, broker);
  ApexRunner runner(ApexRunnerOptions{.parallelism = 1, .fuse_stages = true});
  auto plan = runner.translate_plan(pipeline);
  ASSERT_TRUE(plan.is_ok());
  // source + fused chain + writer = 3 containers instead of 7.
  EXPECT_NE(plan.value().find("Container 2"), std::string::npos)
      << plan.value();
  EXPECT_EQ(plan.value().find("Container 3"), std::string::npos)
      << plan.value();
}

// --- differential: fused == unfused == DirectRunner --------------------------

enum class RunnerKind { kDirect, kFlink, kSpark, kApex };

std::unique_ptr<PipelineRunner> make_runner(RunnerKind kind, bool fuse) {
  switch (kind) {
    case RunnerKind::kDirect:
      return std::make_unique<DirectRunner>();
    case RunnerKind::kFlink:
      return std::make_unique<FlinkRunner>(
          FlinkRunnerOptions{.parallelism = 1, .fuse_stages = fuse});
    case RunnerKind::kSpark:
      return std::make_unique<SparkRunner>(SparkRunnerOptions{
          .parallelism = 1, .batch_interval_ms = 10, .fuse_stages = fuse});
    case RunnerKind::kApex:
      return std::make_unique<ApexRunner>(
          ApexRunnerOptions{.parallelism = 1, .fuse_stages = fuse});
  }
  throw std::invalid_argument("unknown runner");
}

/// The four StreamBench query bodies, expressed once for this suite. Sample
/// uses a per-pipeline seeded decider (not the thread-local production path)
/// so the kept subset is a pure function of element order — the property a
/// differential test needs.
PCollection<Payload> apply_query(const PCollection<Payload>& values,
                                 workload::QueryId query) {
  using workload::QueryId;
  switch (query) {
    case QueryId::kIdentity:
      return values.apply(MapElements<Payload, Payload>::via(
          [](const Payload& line) { return line; }, "Identity"));
    case QueryId::kSample:
      return values.apply(Filter<Payload>::by(
          [decider = workload::SampleDecider(7)](const Payload&) mutable {
            return decider.keep();
          },
          "Sample"));
    case QueryId::kProjection:
      return values.apply(MapElements<Payload, Payload>::via(
          [](const Payload& line) {
            return workload::projection_payload(line);
          },
          "Projection"));
    case QueryId::kGrep:
      return values.apply(Filter<Payload>::by(
          [](const Payload& line) {
            return workload::grep_matches(line.view());
          },
          "Grep"));
  }
  throw std::invalid_argument("unknown query");
}

std::vector<std::string> run_query_with(RunnerKind kind, bool fuse,
                                        workload::QueryId query) {
  kafka::Broker broker;
  load_topic(broker, "in", 400);
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  Pipeline pipeline;
  auto values =
      pipeline.apply(KafkaIO::read(broker, KafkaReadConfig{.topic = "in"}))
          .apply(KafkaIO::without_metadata())
          .apply(Values<Payload>::create<Payload>());
  apply_query(values, query)
      .apply(KafkaIO::write(broker, KafkaWriteConfig{.topic = "out"}));
  auto runner = make_runner(kind, fuse);
  auto result = pipeline.run(*runner);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return read_topic(broker, "out");
}

class FusionDifferentialTest
    : public ::testing::TestWithParam<workload::QueryId> {};

TEST_P(FusionDifferentialTest, FusedMatchesUnfusedAndDirectOnEveryRunner) {
  const workload::QueryId query = GetParam();
  const auto reference =
      run_query_with(RunnerKind::kDirect, false, query);
  ASSERT_FALSE(reference.empty() && query != workload::QueryId::kGrep);
  for (const RunnerKind kind :
       {RunnerKind::kFlink, RunnerKind::kSpark, RunnerKind::kApex}) {
    const auto unfused = run_query_with(kind, false, query);
    const auto fused = run_query_with(kind, true, query);
    EXPECT_EQ(unfused, reference) << "unfused diverged from DirectRunner";
    EXPECT_EQ(fused, reference) << "fused diverged from DirectRunner";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, FusionDifferentialTest,
    ::testing::Values(workload::QueryId::kIdentity, workload::QueryId::kSample,
                      workload::QueryId::kProjection,
                      workload::QueryId::kGrep),
    [](const auto& info) {
      return workload::query_info(info.param).name;
    });

// --- production query path (queries::run_beam + ctx.fuse_stages) -------------

TEST(FusionProductionPathTest, FuseStagesFlagPreservesQueryOutput) {
  // The deterministic production queries (Sample excluded: its thread-local
  // sampling is seeded per worker thread, and fusion legitimately changes
  // the threading) through the real factory, fused vs unfused per engine.
  for (const auto query :
       {workload::QueryId::kIdentity, workload::QueryId::kProjection,
        workload::QueryId::kGrep}) {
    std::vector<std::vector<std::string>> outputs;
    for (const auto engine :
         {queries::Engine::kFlink, queries::Engine::kSpark,
          queries::Engine::kApex}) {
      for (const bool fuse : {false, true}) {
        kafka::Broker broker;
        load_topic(broker, "in", 300);
        broker.create_topic("out", kafka::TopicConfig{.partitions = 1})
            .expect_ok();
        queries::QueryContext ctx;
        ctx.broker = &broker;
        ctx.input_topic = "in";
        ctx.output_topic = "out";
        ctx.fuse_stages = fuse;
        const Status status = queries::run_beam(engine, query, ctx);
        ASSERT_TRUE(status.is_ok()) << status.to_string();
        outputs.push_back(read_topic(broker, "out"));
      }
    }
    for (std::size_t i = 1; i < outputs.size(); ++i) {
      EXPECT_EQ(outputs[i], outputs[0])
          << workload::query_info(query).name << " run " << i
          << " diverged";
    }
  }
}

// --- chaos: the fused path under fault injection ------------------------------

TEST(FusionChaosTest, FusedPathStaysAtLeastOnceUnderFaults) {
  using runtime::FaultInjector;
  using runtime::FaultPoint;
  using runtime::FaultRule;
  constexpr int kRecords = 3000;
  constexpr const char* kIn = "fuse-chaos-in";
  constexpr const char* kOut = "fuse-chaos-out";

  // The unfaulted, unfused reference.
  const std::vector<std::string> baseline = [&] {
    kafka::Broker broker;
    load_topic(broker, kIn, kRecords);
    broker.create_topic(kOut, kafka::TopicConfig{.partitions = 1})
        .expect_ok();
    queries::QueryContext ctx;
    ctx.broker = &broker;
    ctx.input_topic = kIn;
    ctx.output_topic = kOut;
    queries::run_beam(queries::Engine::kFlink, workload::QueryId::kGrep, ctx)
        .expect_ok();
    return read_topic(broker, kOut);
  }();
  ASSERT_FALSE(baseline.empty());

  for (const auto engine :
       {queries::Engine::kFlink, queries::Engine::kSpark,
        queries::Engine::kApex}) {
    SCOPED_TRACE(queries::engine_name(engine));
    kafka::Broker broker;
    load_topic(broker, kIn, kRecords);
    broker.create_topic(kOut, kafka::TopicConfig{.partitions = 1})
        .expect_ok();
    queries::QueryContext ctx;
    ctx.broker = &broker;
    ctx.input_topic = kIn;
    ctx.output_topic = kOut;
    ctx.fuse_stages = true;
    ctx.recovery.enabled = true;
    ctx.recovery.max_restarts = 4;
    ctx.recovery.backoff_seed = 5;

    FaultRule kill{.point = FaultPoint::kOperatorThrow, .times = 1};
    int burn = 0;
    switch (engine) {
      case queries::Engine::kFlink:
        // Under fusion the whole Beam pipeline chains into one source
        // vertex, so per-vertex task sites like "ParDo" never probe; the
        // Beam source's own invoker is the strike point that survives
        // chaining.
        kill.site = "beam.source";
        kill.after_hits = 2;
        break;
      case queries::Engine::kSpark:
        kill.site = "spark.batch";
        kill.after_hits = 1;
        burn = 1;
        break;
      case queries::Engine::kApex:
        kill.site = "apex.";
        kill.after_hits = 1;
        break;
    }
    auto& injector = FaultInjector::instance();
    injector.arm(5, {kill});
    for (int i = 0; i < burn; ++i) {
      try {
        injector.maybe_throw(FaultPoint::kOperatorThrow, "spark.batch");
      } catch (const runtime::FaultInjectedError&) {
      }
    }
    const Status status = queries::run_beam(
        engine, workload::QueryId::kGrep, ctx);
    const std::uint64_t injected = injector.injected_count();
    injector.disarm();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    EXPECT_GT(injected, 0u) << "the fault schedule never struck";

    // At-least-once: nothing lost, nothing invented (duplicates allowed).
    const auto output = read_topic(broker, kOut);
    std::map<std::string, long> missing;
    for (const auto& value : baseline) ++missing[value];
    for (const auto& value : output) --missing[value];
    long lost = 0;
    for (const auto& [value, count] : missing) {
      if (count > 0) lost += count;
    }
    EXPECT_EQ(lost, 0) << "fused recovery lost records";
    EXPECT_EQ(std::set<std::string>(output.begin(), output.end()),
              std::set<std::string>(baseline.begin(), baseline.end()));
  }
}

}  // namespace
}  // namespace dsps::beam
