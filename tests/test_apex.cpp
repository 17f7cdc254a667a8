// Tests for Apex-sim: DAG validation, physical planning (thread groups,
// containers, localities), the window lifecycle, partitioning, codecs, and
// the Kafka operator library on YARN-sim.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "apex/codec.hpp"
#include "apex/dag.hpp"
#include "apex/engine.hpp"
#include "apex/operators_library.hpp"
#include "runtime/fault.hpp"
#include "yarn/resource_manager.hpp"

namespace dsps::apex {
namespace {

using runtime::Payload;

/// Emits the integers [0, n) as strings.
class IntInput final : public InputOperator {
 public:
  explicit IntInput(int n) : n_(n), out_(register_output()) {}
  bool emit_tuples(std::size_t budget) override {
    for (std::size_t b = 0; b < budget && next_ < n_; ++b) {
      emit(out_, make_tuple_of<Payload>(std::to_string(next_++)));
    }
    return next_ < n_;
  }

 private:
  int n_;
  int next_ = 0;
  int out_;
};

/// Collects values with full lifecycle tracking.
class CollectorOp final : public Operator {
 public:
  struct Shared {
    std::mutex mutex;
    std::vector<std::string> values;
    std::atomic<int> setups{0};
    std::atomic<int> begin_windows{0};
    std::atomic<int> end_windows{0};
    std::atomic<int> teardowns{0};
    std::atomic<int> end_streams{0};
  };

  explicit CollectorOp(std::shared_ptr<Shared> shared)
      : shared_(std::move(shared)), in_(register_input([this](const Tuple& t) {
          std::lock_guard lock(shared_->mutex);
          shared_->values.push_back(tuple_cast<Payload>(t).str());
        })) {}

  void setup(const OperatorContext&) override { shared_->setups.fetch_add(1); }
  void begin_window(WindowId) override { shared_->begin_windows.fetch_add(1); }
  void end_window() override { shared_->end_windows.fetch_add(1); }
  void end_stream() override { shared_->end_streams.fetch_add(1); }
  void teardown() override { shared_->teardowns.fetch_add(1); }

 private:
  std::shared_ptr<Shared> shared_;
  int in_;
};

yarn::ResourceManager& test_rm() {
  static yarn::ResourceManager* rm = [] {
    auto* r = new yarn::ResourceManager();
    r->add_node("n0", yarn::Resource{64, 65536});
    r->add_node("n1", yarn::Resource{64, 65536});
    return r;
  }();
  return *rm;
}

std::vector<std::string> string_range(int n) {
  std::vector<std::string> v;
  for (int i = 0; i < n; ++i) v.push_back(std::to_string(i));
  return v;
}

// --- DAG validation --------------------------------------------------------------

TEST(ApexDagTest, ValidLinearDag) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(1);
  });
  const int op = dag.add_operator("op", [] {
    return std::make_unique<CollectorOp>(
        std::make_shared<CollectorOp::Shared>());
  });
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0},
                 Locality::kThreadLocal, {});
  EXPECT_TRUE(dag.validate().is_ok());
}

TEST(ApexDagTest, RejectsStreamIntoInputOperator) {
  Dag dag;
  const int a = dag.add_input_operator("a", [] {
    return std::make_unique<IntInput>(1);
  });
  const int b = dag.add_input_operator("b", [] {
    return std::make_unique<IntInput>(1);
  });
  dag.add_stream("s", PortRef{a, 0}, PortRef{b, 0}, Locality::kThreadLocal,
                 {});
  EXPECT_EQ(dag.validate().code(), StatusCode::kInvalidArgument);
}

TEST(ApexDagTest, RejectsSelfLoop) {
  Dag dag;
  const int op = dag.add_operator("op", [] {
    return std::make_unique<CollectorOp>(
        std::make_shared<CollectorOp::Shared>());
  });
  dag.add_stream("s", PortRef{op, 0}, PortRef{op, 0}, Locality::kThreadLocal,
                 {});
  EXPECT_EQ(dag.validate().code(), StatusCode::kInvalidArgument);
}

TEST(ApexDagTest, RejectsNodeLocalWithoutCodec) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(1);
  });
  const int op = dag.add_operator("op", [] {
    return std::make_unique<CollectorOp>(
        std::make_shared<CollectorOp::Shared>());
  });
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0}, Locality::kNodeLocal,
                 {});
  EXPECT_EQ(dag.validate().code(), StatusCode::kInvalidArgument);
}

TEST(ApexDagTest, RejectsUnevenThreadLocalPartitions) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(1);
  });
  const int op = dag.add_operator("op", [] {
    return std::make_unique<CollectorOp>(
        std::make_shared<CollectorOp::Shared>());
  });
  dag.set_partitions(op, 2);
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0},
                 Locality::kThreadLocal, {});
  EXPECT_EQ(dag.validate().code(), StatusCode::kInvalidArgument);
}

TEST(ApexDagTest, AcceptsPartitionedInputOperator) {
  // Input operators partition like any other (each instance reads its own
  // slice of the topic at setup — see KafkaPayloadInput).
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(1);
  });
  dag.set_partitions(in, 4);
  const int op = dag.add_operator("op", [] {
    return std::make_unique<CollectorOp>(
        std::make_shared<CollectorOp::Shared>());
  });
  dag.set_partitions(op, 4);
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0},
                 Locality::kContainerLocal, {});
  EXPECT_TRUE(dag.validate().is_ok());
}

TEST(ApexDagTest, RejectsDagWithoutInputOperator) {
  Dag dag;
  dag.add_operator("lonely", [] {
    return std::make_unique<CollectorOp>(
        std::make_shared<CollectorOp::Shared>());
  });
  EXPECT_EQ(dag.validate().code(), StatusCode::kInvalidArgument);
}

// --- physical planning --------------------------------------------------------------

TEST(ApexPlanTest, ThreadLocalChainSharesContainer) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(1);
  });
  const int op = dag.add_operator("op", [] {
    return std::make_unique<CollectorOp>(
        std::make_shared<CollectorOp::Shared>());
  });
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0},
                 Locality::kThreadLocal, {});
  const auto plan = render_physical_plan(dag);
  ASSERT_TRUE(plan.is_ok());
  // One thread group, one container.
  EXPECT_NE(plan.value().find("Thread Group 0"), std::string::npos);
  EXPECT_EQ(plan.value().find("Thread Group 1"), std::string::npos);
}

TEST(ApexPlanTest, NodeLocalSplitsContainers) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(1);
  });
  const int op = dag.add_operator("op", [] {
    return std::make_unique<CollectorOp>(
        std::make_shared<CollectorOp::Shared>());
  });
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0}, Locality::kNodeLocal,
                 payload_codec());
  const auto plan = render_physical_plan(dag);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_NE(plan.value().find("Container 0"), std::string::npos);
  EXPECT_NE(plan.value().find("Container 1"), std::string::npos);
}

// --- execution -----------------------------------------------------------------------

struct LocalityCase {
  Locality locality;
  const char* name;
};

class ApexLocalityTest : public ::testing::TestWithParam<LocalityCase> {};

TEST_P(ApexLocalityTest, DeliversAllTuplesInOrder) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(500);
  });
  auto shared = std::make_shared<CollectorOp::Shared>();
  const int op = dag.add_operator("collect", [shared] {
    return std::make_unique<CollectorOp>(shared);
  });
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0}, GetParam().locality,
                 GetParam().locality == Locality::kNodeLocal
                     ? payload_codec()
                     : CodecFactory{});
  auto stats = launch_application(test_rm(), dag, EngineConfig{});
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  ASSERT_EQ(shared->values.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(shared->values[static_cast<std::size_t>(i)],
              std::to_string(i));
  }
  EXPECT_EQ(stats.value().counter("operator.collect.tuples_in"), 500u);
}

INSTANTIATE_TEST_SUITE_P(
    Localities, ApexLocalityTest,
    ::testing::Values(LocalityCase{Locality::kThreadLocal, "thread"},
                      LocalityCase{Locality::kContainerLocal, "container"},
                      LocalityCase{Locality::kNodeLocal, "node"}),
    [](const auto& info) { return info.param.name; });

TEST(ApexEngineTest, WindowLifecycleBalanced) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(
        static_cast<int>(10 * kWindowTupleBudget));
  });
  auto shared = std::make_shared<CollectorOp::Shared>();
  const int op = dag.add_operator("collect", [shared] {
    return std::make_unique<CollectorOp>(shared);
  });
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0},
                 Locality::kContainerLocal, {});
  auto stats = launch_application(test_rm(), dag, EngineConfig{});
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(shared->setups.load(), 1);
  EXPECT_EQ(shared->teardowns.load(), 1);
  EXPECT_EQ(shared->end_streams.load(), 1);
  EXPECT_EQ(shared->begin_windows.load(), shared->end_windows.load());
  // Ten windows' worth of tuples => at least 10 windows were emitted.
  EXPECT_GE(stats.value().counter("windows.emitted"), 10u);
}

TEST(ApexEngineTest, PartitionedOperatorSeesEverythingOnce) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(1000);
  });
  // Pass-through compute partitioned 3 ways, merged into one collector.
  const int compute = dag.add_operator(
      "compute", map_payload_factory([](const Payload& s) { return s; }));
  dag.set_partitions(compute, 3);
  auto shared = std::make_shared<CollectorOp::Shared>();
  const int sink = dag.add_operator("collect", [shared] {
    return std::make_unique<CollectorOp>(shared);
  });
  dag.add_stream("a", PortRef{in, 0}, PortRef{compute, 0},
                 Locality::kContainerLocal, {});
  dag.add_stream("b", PortRef{compute, 0}, PortRef{sink, 0},
                 Locality::kContainerLocal, {});
  auto stats = launch_application(test_rm(), dag, EngineConfig{});
  ASSERT_TRUE(stats.is_ok());
  ASSERT_EQ(shared->values.size(), 1000u);
  std::vector<std::string> sorted = shared->values;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> expected = string_range(1000);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted, expected);
}

TEST(ApexEngineTest, InvalidDagRejectedBeforeDeployment) {
  Dag dag;  // empty
  auto stats = launch_application(test_rm(), dag, EngineConfig{});
  EXPECT_FALSE(stats.is_ok());
}

TEST(ApexEngineTest, ReportsContainerAndGroupCounts) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(10);
  });
  const int a = dag.add_operator(
      "a", map_payload_factory([](const Payload& s) { return s; }));
  const int b = dag.add_operator(
      "b", map_payload_factory([](const Payload& s) { return s; }));
  dag.add_stream("s1", PortRef{in, 0}, PortRef{a, 0}, Locality::kNodeLocal,
                 payload_codec());
  dag.add_stream("s2", PortRef{a, 0}, PortRef{b, 0}, Locality::kNodeLocal,
                 payload_codec());
  auto stats = launch_application(test_rm(), dag, EngineConfig{});
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().gauge("app.containers"), 3.0);
  EXPECT_EQ(stats.value().gauge("app.thread_groups"), 3.0);
}

TEST(ApexEngineTest, RunsOnDegradedClusterAfterNodeFailure) {
  // Failure injection: one of two YARN nodes dies before submission; the
  // application must still deploy and complete on the surviving node.
  yarn::ResourceManager rm;
  rm.add_node("doomed", yarn::Resource{64, 65536});
  rm.add_node("survivor", yarn::Resource{64, 65536});
  rm.fail_node("doomed");

  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(200);
  });
  auto shared = std::make_shared<CollectorOp::Shared>();
  const int op = dag.add_operator("collect", [shared] {
    return std::make_unique<CollectorOp>(shared);
  });
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0},
                 Locality::kNodeLocal, payload_codec());
  auto stats = launch_application(rm, dag, EngineConfig{});
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(shared->values.size(), 200u);
  // Only the survivor counts, and it got every container back.
  EXPECT_EQ(rm.cluster_available(), (yarn::Resource{64, 65536}));
}

TEST(ApexEngineTest, FailsCleanlyWhenClusterTooSmall) {
  yarn::ResourceManager rm;
  rm.add_node("tiny", yarn::Resource{1, 256});  // fits the AM only
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(1);
  });
  const int op = dag.add_operator(
      "op", map_payload_factory([](const Payload& s) { return s; }));
  dag.add_stream("s", PortRef{in, 0}, PortRef{op, 0},
                 Locality::kNodeLocal, payload_codec());
  auto stats = launch_application(rm, dag, EngineConfig{});
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

// --- the YARN-sim ledger balances --------------------------------------------
//
// However an application ends, launch_application hands back every
// container it booked: a leaked reservation would shrink the cluster for
// every later run (and every reattempt) until it ran out of room.

/// A pass-through operator whose first instance ever built throws on its
/// first tuple; every later instance (a reattempt's) passes tuples on.
class ThrowOnceOp final : public Operator {
 public:
  explicit ThrowOnceOp(std::shared_ptr<std::atomic<int>> built)
      : throws_(built->fetch_add(1) == 0),
        out_(register_output()),
        in_(register_input([this](const Tuple& t) {
          if (throws_) throw std::runtime_error("first attempt fails");
          emit(out_, t);
        })) {}

 private:
  bool throws_;
  int out_;
  int in_;
};

/// in -> ThrowOnceOp -> collector, one container per operator.
Dag throw_once_dag(std::shared_ptr<std::atomic<int>> built,
                   std::shared_ptr<CollectorOp::Shared> shared) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(100);
  });
  const int flaky = dag.add_operator("flaky", [built] {
    return std::make_unique<ThrowOnceOp>(built);
  });
  const int out = dag.add_operator("collect", [shared] {
    return std::make_unique<CollectorOp>(shared);
  });
  dag.add_stream("a", PortRef{in, 0}, PortRef{flaky, 0}, Locality::kNodeLocal,
                 payload_codec());
  dag.add_stream("b", PortRef{flaky, 0}, PortRef{out, 0},
                 Locality::kNodeLocal, payload_codec());
  return dag;
}

TEST(ApexLedgerTest, CleanRunReleasesEveryContainer) {
  yarn::ResourceManager rm;
  rm.add_node("n0", yarn::Resource{8, 4096});
  rm.add_node("n1", yarn::Resource{8, 4096});
  // A count of 1 means no instance is the first, so none throws.
  auto built = std::make_shared<std::atomic<int>>(1);
  auto shared = std::make_shared<CollectorOp::Shared>();
  const Dag dag = throw_once_dag(built, shared);
  ASSERT_TRUE(launch_application(rm, dag, EngineConfig{}).is_ok());
  EXPECT_EQ(shared->values.size(), 100u);
  EXPECT_EQ(rm.cluster_available(), (yarn::Resource{16, 8192}));
}

TEST(ApexLedgerTest, ResourceExhaustedReleasesWhatItBooked) {
  // Room for the AM and the input's container, not the third one.
  yarn::ResourceManager rm;
  rm.add_node("n0", yarn::Resource{2, 512});
  auto built = std::make_shared<std::atomic<int>>(0);
  const Dag dag =
      throw_once_dag(built, std::make_shared<CollectorOp::Shared>());
  auto stats = launch_application(rm, dag, EngineConfig{});
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rm.cluster_available(), (yarn::Resource{2, 512}));
}

TEST(ApexLedgerTest, ReattemptAfterAGroupThrowsReleasesBothAttempts) {
  // Three containers plus the AM fill the node exactly, so a second
  // attempt can only deploy if the first one released everything.
  yarn::ResourceManager rm;
  rm.add_node("n0", yarn::Resource{4, 1024});
  auto built = std::make_shared<std::atomic<int>>(0);
  auto shared = std::make_shared<CollectorOp::Shared>();
  const Dag dag = throw_once_dag(built, shared);
  EngineConfig config;
  config.max_attempts = 2;
  auto stats = launch_application(rm, dag, config);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(built->load(), 2);  // one instance per attempt
  EXPECT_EQ(shared->values.size(), 100u);
  EXPECT_EQ(rm.cluster_available(), (yarn::Resource{4, 1024}));
}

// --- codecs ---------------------------------------------------------------------------

TEST(ApexCodecTest, PayloadCodecRoundTrip) {
  PayloadCodec codec;
  runtime::PayloadArena arena;
  const Tuple tuple = make_tuple_of<Payload>("hello\tworld");
  const runtime::Payload wire = codec.serialize(tuple, arena);
  const Tuple restored = codec.deserialize(wire);
  EXPECT_EQ(tuple_cast<Payload>(restored).view(), "hello\tworld");
}

TEST(ApexCodecTest, EmptyPayloadRoundTrip) {
  PayloadCodec codec;
  runtime::PayloadArena arena;
  const Tuple restored = codec.deserialize(
      codec.serialize(make_tuple_of<Payload>(""), arena));
  EXPECT_EQ(tuple_cast<Payload>(restored).view(), "");
}

TEST(ApexCodecTest, DeserializedPayloadKeepsWireStorageAlive) {
  // Zero-copy decode: the deserialized tuple aliases the refcounted wire
  // chunk, and that alias must keep the bytes alive after both the wire
  // payload and the arena die.
  PayloadCodec codec;
  Tuple restored;
  {
    runtime::PayloadArena arena;
    const runtime::Payload wire =
        codec.serialize(make_tuple_of<Payload>("boundary"), arena);
    restored = codec.deserialize(wire);
    EXPECT_TRUE(tuple_cast<Payload>(restored).shares_storage_with(wire));
  }
  EXPECT_EQ(tuple_cast<Payload>(restored).view(), "boundary");
}

// --- functional operator library ----------------------------------------------------

TEST(ApexOperatorsTest, MapFilterCompose) {
  Dag dag;
  const int in = dag.add_input_operator("in", [] {
    return std::make_unique<IntInput>(10);
  });
  const int doubled = dag.add_operator(
      "double", map_payload_factory([](const Payload& s) {
        return Payload(std::to_string(std::stoi(s.str()) * 2));
      }));
  const int filtered = dag.add_operator(
      "filter", filter_payload_factory([](const Payload& s) {
        return std::stoi(s.str()) >= 10;
      }));
  auto shared = std::make_shared<CollectorOp::Shared>();
  const int sink = dag.add_operator("collect", [shared] {
    return std::make_unique<CollectorOp>(shared);
  });
  dag.add_stream("s1", PortRef{in, 0}, PortRef{doubled, 0},
                 Locality::kThreadLocal, {});
  dag.add_stream("s2", PortRef{doubled, 0}, PortRef{filtered, 0},
                 Locality::kThreadLocal, {});
  dag.add_stream("s3", PortRef{filtered, 0}, PortRef{sink, 0},
                 Locality::kThreadLocal, {});
  auto stats = launch_application(test_rm(), dag, EngineConfig{});
  ASSERT_TRUE(stats.is_ok());
  // Inputs 0..9 doubled -> 0..18 even; the filter keeps >= 10, in order.
  EXPECT_EQ(shared->values,
            (std::vector<std::string>{"10", "12", "14", "16", "18"}));
}

// --- Kafka operators end to end -----------------------------------------------------

TEST(ApexKafkaTest, KafkaInputToOutputOnYarn) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (int i = 0; i < 300; ++i) {
    broker.append({"in", 0},
                  kafka::ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
  Dag dag;
  const int in =
      dag.add_input_operator("kafkaIn", kafka_input_factory(broker, "in"));
  const int out = dag.add_operator(
      "kafkaOut", kafka_output_factory(
                      broker, KafkaPayloadOutput::Config{.topic = "out"}));
  dag.add_stream("s", PortRef{in, 0}, PortRef{out, 0},
                 Locality::kThreadLocal, {});
  auto stats = launch_application(test_rm(), dag, EngineConfig{});
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(broker.end_offset({"out", 0}).value(), 300);
}

TEST(ApexKafkaTest, PartitionedInputDrainsAllTopicPartitionsOnce) {
  // Scale-out path: a 4-way partitioned input operator over a 4-partition
  // topic, auto-partitioned output (-1). Every record must come out exactly
  // once, spread over the output partitions.
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 4}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 4}).expect_ok();
  for (int i = 0; i < 400; ++i) {
    broker.append({"in", i % 4},
                  kafka::ProducerRecord{.value = std::to_string(i)}, false)
        .status()
        .expect_ok();
  }
  Dag dag;
  const int in =
      dag.add_input_operator("kafkaIn", kafka_input_factory(broker, "in"));
  dag.set_partitions(in, 4);
  const int out = dag.add_operator(
      "kafkaOut",
      kafka_output_factory(
          broker, KafkaPayloadOutput::Config{.topic = "out", .partition = -1}));
  dag.set_partitions(out, 4);
  dag.add_stream("s", PortRef{in, 0}, PortRef{out, 0},
                 Locality::kContainerLocal, {});
  auto stats = launch_application(test_rm(), dag, EngineConfig{});
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();

  std::vector<std::string> values;
  int used_partitions = 0;
  for (int p = 0; p < 4; ++p) {
    std::vector<kafka::StoredRecord> records;
    broker.fetch({"out", p}, 0, 1000, records).status().expect_ok();
    if (!records.empty()) ++used_partitions;
    for (const auto& record : records) values.push_back(record.value.str());
  }
  ASSERT_EQ(values.size(), 400u);
  std::sort(values.begin(), values.end());
  std::vector<std::string> expected = string_range(400);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(values, expected);
  // The -1 sink really fanned out (each instance wrote its own partition).
  EXPECT_EQ(used_partitions, 4);
}

TEST(ApexSinkTeardownTest, ReportsRetryableCloseStatusInsteadOfThrowing) {
  auto& injector = runtime::FaultInjector::instance();
  kafka::Broker broker;
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  KafkaPayloadOutput sink(broker, KafkaPayloadOutput::Config{.topic = "out"});
  sink.setup(OperatorContext{.name = "kafkaOutput"});
  sink.deliver(sink.input_port(), make_tuple_of<Payload>("buffered"));
  // The record is still buffered (batch 500); teardown's close() must flush
  // it into a 300 ms outage, exhaust its retries, and *report* the failure
  // rather than throwing out of teardown (which can run during unwind).
  injector.arm(13, {runtime::FaultRule{
                       .point = runtime::FaultPoint::kBrokerUnavailable,
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

}  // namespace
}  // namespace dsps::apex
