// Tests for the shared runtime substrate (src/runtime/): refcounted
// payloads, the unified metrics registry, and the supervised task
// lifecycle — plus the cross-engine shutdown contract the substrate
// guarantees: stopping a job mid-stream delivers every record the job
// accepted exactly once, on all three engines, matching a DirectRunner
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apex/dag.hpp"
#include "apex/engine.hpp"
#include "apex/operators_library.hpp"
#include "beam/kafka_io.hpp"
#include "beam/pipeline.hpp"
#include "beam/runners/direct_runner.hpp"
#include "flink/environment.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "runtime/payload.hpp"
#include "runtime/task_runtime.hpp"
#include "spark/streaming_context.hpp"
#include "yarn/resource_manager.hpp"

namespace dsps {
namespace {

using runtime::MetricsRegistry;
using runtime::Payload;
using runtime::PayloadArena;
using runtime::TaskRuntime;

// Long enough to defeat small-string optimization, so an adopted buffer is
// heap storage whose pointer survives the move.
const std::string kLongText =
    "a-reasonably-long-record-value-that-cannot-live-in-SSO-storage";

// --- Payload -----------------------------------------------------------------

TEST(PayloadTest, DefaultIsEmptyNotNull) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.view(), "");
}

TEST(PayloadTest, AdoptingRvalueStringCopiesNoBytes) {
  std::string text = kLongText;
  const char* buffer = text.data();
  Payload p(std::move(text));
  EXPECT_EQ(p.data(), buffer);  // same heap buffer, zero copies
  EXPECT_EQ(p.view(), kLongText);
}

TEST(PayloadTest, CopySharesStorageInsteadOfCopyingBytes) {
  Payload a{kLongText};
  Payload b = a;
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(a.data(), b.data());
}

TEST(PayloadTest, SliceSharesStorageAndClamps) {
  Payload p("hello,world");
  Payload field = p.slice(6, 5);
  EXPECT_EQ(field.view(), "world");
  EXPECT_TRUE(field.shares_storage_with(p));
  EXPECT_EQ(p.slice(100, 5).view(), "");    // pos past the end
  EXPECT_EQ(p.slice(6, 100).view(), "world");  // count clamped
}

TEST(PayloadTest, ComparesAgainstStringsAndLiterals) {
  Payload p("value-7");
  EXPECT_EQ(p, "value-7");
  EXPECT_EQ(p, std::string("value-7"));
  EXPECT_EQ(p, std::string_view("value-7"));
  EXPECT_EQ(p, Payload("value-7"));
  EXPECT_FALSE(p == "value-8");
  EXPECT_LT(Payload("a"), Payload("b"));
}

TEST(PayloadTest, HashAgreesWithStringView) {
  Payload p(kLongText);
  EXPECT_EQ(std::hash<Payload>{}(p),
            std::hash<std::string_view>{}(kLongText));
}

TEST(PayloadTest, PayloadKeepsAdoptedStorageAliveAfterSourceDies) {
  Payload p;
  {
    std::string text = kLongText;
    p = Payload(std::move(text));
  }
  EXPECT_EQ(p.view(), kLongText);
}

// --- PayloadArena ------------------------------------------------------------

TEST(PayloadArenaTest, ManySmallPayloadsShareOneChunk) {
  PayloadArena arena(4096);
  std::vector<Payload> payloads;
  for (int i = 0; i < 100; ++i) {
    payloads.push_back(arena.intern("rec" + std::to_string(i)));
  }
  EXPECT_EQ(arena.chunks_allocated(), 1u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(payloads[static_cast<std::size_t>(i)],
              "rec" + std::to_string(i));
    EXPECT_TRUE(payloads[0].shares_storage_with(
        payloads[static_cast<std::size_t>(i)]));
  }
}

TEST(PayloadArenaTest, OversizedTextGetsDedicatedChunk) {
  PayloadArena arena(64);
  const std::string big(1000, 'x');
  Payload p = arena.intern(big);
  EXPECT_EQ(p.view(), big);
  EXPECT_GE(arena.chunks_allocated(), 1u);
  EXPECT_EQ(arena.bytes_interned(), 1000u);
}

TEST(PayloadArenaTest, InternedPayloadOutlivesTheArena) {
  Payload survivor;
  {
    PayloadArena arena;
    survivor = arena.intern(kLongText);
  }
  // The chunk is refcounted storage, not owned by the arena object.
  EXPECT_EQ(survivor.view(), kLongText);
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CounterSumsAcrossConcurrentThreads) {
  MetricsRegistry registry;
  auto counter = registry.counter("records_in");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([counter]() mutable {
      for (int i = 0; i < 10'000; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 80'000u);
  EXPECT_EQ(registry.snapshot().counter("records_in"), 80'000u);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.counter("c").add(4);
  EXPECT_EQ(registry.snapshot().counter("c"), 7u);
}

TEST(MetricsRegistryTest, GaugeIsLastWriteWins) {
  MetricsRegistry registry;
  auto gauge = registry.gauge("depth");
  gauge.set(5.0);
  gauge.set(2.5);
  EXPECT_EQ(registry.snapshot().gauge("depth"), 2.5);
}

TEST(MetricsRegistryTest, HistogramTracksCountSumAndPercentiles) {
  MetricsRegistry registry;
  auto histogram = registry.histogram("batch.duration_us");
  for (std::uint64_t us : {100u, 200u, 400u, 800u}) histogram.record_us(us);
  const auto snapshot = registry.snapshot();
  const auto& summary = snapshot.histograms.at("batch.duration_us");
  EXPECT_EQ(summary.count, 4u);
  EXPECT_EQ(summary.sum_us, 1500u);
  EXPECT_EQ(summary.mean_us(), 375.0);
  EXPECT_GE(summary.percentile_us(1.0), 800u);
  EXPECT_LE(summary.percentile_us(0.0), 128u);  // bucket upper bound
}

TEST(MetricsRegistryTest, SnapshotFallbacksAndPrefixScan) {
  MetricsRegistry registry;
  registry.counter("operator.map.tuples_in").add(7);
  registry.counter("operator.sink.tuples_in").add(9);
  registry.counter("windows.emitted").add(1);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("missing", 42u), 42u);
  EXPECT_EQ(snapshot.gauge("missing", -1.0), -1.0);
  const auto operators = snapshot.counters_with_prefix("operator.");
  ASSERT_EQ(operators.size(), 2u);
  EXPECT_EQ(operators[0].first, "operator.map.tuples_in");
  EXPECT_EQ(operators[0].second, 7u);
  EXPECT_EQ(operators[1].first, "operator.sink.tuples_in");
}

TEST(MetricsRegistryTest, MergeAddsCountersUnderPrefix) {
  MetricsRegistry job;
  job.counter("records").add(10);
  job.gauge("duration_ms").set(12.5);
  job.histogram("latency").record_us(64);

  MetricsRegistry process;
  process.merge(job.snapshot(), "flink.");
  process.merge(job.snapshot(), "flink.");  // two jobs: counters add
  const auto snapshot = process.snapshot();
  EXPECT_EQ(snapshot.counter("flink.records"), 20u);
  EXPECT_EQ(snapshot.gauge("flink.duration_ms"), 12.5);
  EXPECT_EQ(snapshot.histograms.at("flink.latency").count, 2u);
}

TEST(MetricsRegistryTest, ToJsonCarriesAllThreeKinds) {
  MetricsRegistry registry;
  registry.counter("in").add(3);
  registry.gauge("g").set(1.5);
  registry.histogram("h").record_us(10);
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"in\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --- TaskRuntime -------------------------------------------------------------

TEST(TaskRuntimeTest, JoinAllWaitsForEveryTask) {
  TaskRuntime tasks("test");
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    tasks.spawn("worker-" + std::to_string(i), [&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  EXPECT_TRUE(tasks.join_all().is_ok());
  EXPECT_EQ(done.load(), 4);
}

TEST(TaskRuntimeTest, ThrowingTaskFailsTheJobInsteadOfHangingIt) {
  TaskRuntime tasks("test");
  // Supervisor wiring used by every engine: first failure requests stop,
  // so the healthy (potentially blocked) peer task unwinds.
  tasks.set_failure_handler(
      [&tasks](const Status&) { tasks.request_stop(); });
  tasks.spawn("healthy", [&tasks] {
    while (!tasks.stop_requested()) std::this_thread::yield();
  });
  tasks.spawn("crashing", [] {
    throw std::runtime_error("operator exploded");
  });
  const Status status = tasks.join_all();
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("operator exploded"), std::string::npos);
  EXPECT_NE(status.to_string().find("crashing"), std::string::npos);
}

TEST(TaskRuntimeTest, FirstFailureWinsAndIsSticky) {
  TaskRuntime tasks("test");
  tasks.spawn("first", [] { throw std::runtime_error("first"); });
  tasks.wait(0);
  tasks.spawn("second", [] { throw std::runtime_error("second"); });
  EXPECT_FALSE(tasks.join_all().is_ok());
  EXPECT_NE(tasks.first_failure().to_string().find("first"),
            std::string::npos);
}

TEST(TaskRuntimeTest, WaitIsIdempotentAndDestructorJoins) {
  std::atomic<bool> ran{false};
  {
    TaskRuntime tasks("test");
    const auto id = tasks.spawn("one", [&ran] { ran.store(true); });
    tasks.wait(id);
    tasks.wait(id);  // second wait is a no-op
    tasks.spawn("straggler", [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  }  // destructor joins the straggler without aborting
  EXPECT_TRUE(ran.load());
}

TEST(TaskRuntimeTest, OrderedDrainSurvivesWorkerThrowingDuringStop) {
  // Regression: wait() used to mark a task joined before its failure was
  // published, so a concurrent ordered drain could read first_failure()
  // too early — or two waiters raced the same std::thread::join and one
  // hung forever. Both drains below must finish and see the error.
  TaskRuntime tasks("test");
  tasks.set_failure_handler(
      [&tasks](const Status&) { tasks.request_stop(); });
  std::atomic<bool> release{false};
  tasks.spawn("blocker", [&] {
    while (!release.load() && !tasks.stop_requested()) {
      std::this_thread::yield();
    }
  });
  const auto thrower = tasks.spawn("thrower", [&] {
    while (!release.load()) std::this_thread::yield();
    throw std::runtime_error("died during drain");
  });
  std::thread concurrent([&tasks, thrower] { tasks.wait(thrower); });
  release.store(true);
  const Status status = tasks.join_all();
  concurrent.join();
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("died during drain"), std::string::npos);
  EXPECT_NE(tasks.first_failure().to_string().find("thrower"),
            std::string::npos);
}

TEST(TaskRuntimeTest, SupervisedTaskRestartsUntilSuccess) {
  const std::uint64_t restarts_before =
      MetricsRegistry::global().snapshot().counter("runtime.task_restarts");
  TaskRuntime tasks("test");
  std::atomic<int> attempts{0};
  tasks.spawn_supervised(
      "flaky",
      [&attempts] {
        if (attempts.fetch_add(1) < 2) throw std::runtime_error("transient");
      },
      runtime::RestartPolicy{.max_attempts = 5,
                             .backoff = {.initial_us = 1, .max_us = 1}});
  EXPECT_TRUE(tasks.join_all().is_ok());
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(
      MetricsRegistry::global().snapshot().counter("runtime.task_restarts"),
      restarts_before + 2);
}

TEST(TaskRuntimeTest, SupervisedTaskExhaustionSurfacesLastError) {
  TaskRuntime tasks("test");
  std::atomic<int> attempts{0};
  tasks.spawn_supervised(
      "doomed",
      [&attempts] {
        throw std::runtime_error("attempt " +
                                 std::to_string(attempts.fetch_add(1)));
      },
      runtime::RestartPolicy{.max_attempts = 3,
                             .backoff = {.initial_us = 1, .max_us = 1}});
  const Status status = tasks.join_all();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(attempts.load(), 3);
  // Exhaustion surfaces the *last* attempt's error, not the first.
  EXPECT_NE(status.to_string().find("attempt 2"), std::string::npos);
}

// --- Backoff / run_supervised ------------------------------------------------

TEST(BackoffTest, GrowsExponentiallyWithinJitterBoundsAndCaps) {
  const runtime::BackoffPolicy policy{.initial_us = 100,
                                      .multiplier = 2.0,
                                      .max_us = 1'000,
                                      .jitter = 0.2,
                                      .seed = 1};
  runtime::Backoff backoff(policy);
  std::uint64_t base = policy.initial_us;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t delay = backoff.next_delay_us();
    const double capped =
        static_cast<double>(std::min<std::uint64_t>(base, policy.max_us));
    EXPECT_GE(delay,
              static_cast<std::uint64_t>(capped * (1.0 - policy.jitter)));
    EXPECT_LE(delay,
              static_cast<std::uint64_t>(capped * (1.0 + policy.jitter)) + 1);
    base = std::min<std::uint64_t>(base * 2, policy.max_us);
  }
}

TEST(BackoffTest, JitterIsDeterministicPerSeed) {
  const runtime::BackoffPolicy policy{
      .initial_us = 200, .multiplier = 2.0, .max_us = 20'000, .seed = 7};
  runtime::Backoff a(policy);
  runtime::Backoff b(policy);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.next_delay_us(), b.next_delay_us());
  }
  // A different seed draws a different jitter stream.
  runtime::BackoffPolicy other = policy;
  other.seed = 8;
  runtime::Backoff c(policy);
  runtime::Backoff d(other);
  bool any_differs = false;
  for (int i = 0; i < 8; ++i) {
    any_differs |= c.next_delay_us() != d.next_delay_us();
  }
  EXPECT_TRUE(any_differs);
}

TEST(RunSupervisedTest, RetriesUntilSuccess) {
  int attempts = 0;
  int retries = 0;
  const Status status = runtime::run_supervised(
      runtime::RestartPolicy{.max_attempts = 5,
                             .backoff = {.initial_us = 1, .max_us = 1}},
      [&attempts](int attempt) -> Status {
        ++attempts;
        if (attempt < 2) return Status::internal("transient");
        return Status::ok();
      },
      [&retries](int, const Status&) { ++retries; });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(retries, 2);
}

TEST(RunSupervisedTest, ExhaustionSurfacesLastErrorAndSkipsFinalRetryHook) {
  int retries = 0;
  const Status status = runtime::run_supervised(
      runtime::RestartPolicy{.max_attempts = 3,
                             .backoff = {.initial_us = 1, .max_us = 1}},
      [](int attempt) -> Status {
        throw std::runtime_error("boom " + std::to_string(attempt));
      },
      [&retries](int, const Status&) { ++retries; });
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("boom 2"), std::string::npos);
  EXPECT_EQ(retries, 2);  // the final, non-retried failure skips on_retry
}

// --- FaultInjector -----------------------------------------------------------

TEST(FaultInjectorTest, DisarmedPointsAreNoOps) {
  auto& injector = runtime::FaultInjector::instance();
  injector.disarm();
  EXPECT_FALSE(injector.armed());
  injector.maybe_throw(runtime::FaultPoint::kOperatorThrow, "anywhere");
  injector.maybe_stall(runtime::FaultPoint::kQueueStall, "anywhere");
  EXPECT_FALSE(injector.broker_unavailable("anywhere"));
}

TEST(FaultInjectorTest, FiresAfterHitsAndRespectsTimesCap) {
  auto& injector = runtime::FaultInjector::instance();
  injector.arm(1, {runtime::FaultRule{
                      .point = runtime::FaultPoint::kOperatorThrow,
                      .site = "op",
                      .after_hits = 2,
                      .times = 2}});
  int thrown = 0;
  for (int i = 0; i < 8; ++i) {
    try {
      injector.maybe_throw(runtime::FaultPoint::kOperatorThrow,
                           "engine.op.map");
    } catch (const runtime::FaultInjectedError& error) {
      ++thrown;
      EXPECT_EQ(error.point(), runtime::FaultPoint::kOperatorThrow);
    }
  }
  EXPECT_EQ(thrown, 2);  // hits 3 and 4 fire, then the rule is spent
  EXPECT_EQ(injector.injected_count(), 2u);
  injector.disarm();
}

TEST(FaultInjectorTest, SiteSubstringGatesTheRule) {
  auto& injector = runtime::FaultInjector::instance();
  injector.arm(1, {runtime::FaultRule{
                      .point = runtime::FaultPoint::kOperatorThrow,
                      .site = "flink.source",
                      .after_hits = 1,
                      .times = 1}});
  for (int i = 0; i < 8; ++i) {
    // A non-matching site never advances the rule, let alone fires it.
    injector.maybe_throw(runtime::FaultPoint::kOperatorThrow, "spark.batch");
  }
  injector.maybe_throw(runtime::FaultPoint::kOperatorThrow,
                       "flink.source.topic-in");  // hit 1: passes
  EXPECT_THROW(injector.maybe_throw(runtime::FaultPoint::kOperatorThrow,
                                    "flink.source.topic-in"),
               runtime::FaultInjectedError);
  injector.disarm();
}

TEST(FaultInjectorTest, DerivedTriggerIsDeterministicPerSeed) {
  auto fire_position = [](std::uint64_t seed) {
    auto& injector = runtime::FaultInjector::instance();
    // after_hits == 0: the trigger position is derived from the seed.
    injector.arm(seed, {runtime::FaultRule{
                           .point = runtime::FaultPoint::kOperatorThrow,
                           .site = "x",
                           .after_hits = 0,
                           .times = 1}});
    int position = -1;
    for (int i = 0; i < 64; ++i) {
      try {
        injector.maybe_throw(runtime::FaultPoint::kOperatorThrow, "x");
      } catch (const runtime::FaultInjectedError&) {
        position = i;
        break;
      }
    }
    injector.disarm();
    return position;
  };
  const int base = fire_position(1234);
  EXPECT_GE(base, 1);  // derived positions always pass at least one hit
  EXPECT_EQ(base, fire_position(1234));  // same seed, same kill point
  bool any_differs = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    any_differs |= fire_position(seed) != base;
  }
  EXPECT_TRUE(any_differs);  // distinct seeds spread the kill points
}

// --- cross-engine shutdown contract -----------------------------------------
//
// stop() mid-stream must deliver every record the job accepted exactly
// once: no record may be dropped from a staging buffer, and none may be
// replayed into the sink. Each engine's delivered output is checked
// against a DirectRunner identity pipeline over the same accepted input.

std::vector<std::string> direct_runner_reference(
    const std::vector<std::string>& accepted) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  for (const auto& value : accepted) {
    broker.append({"in", 0}, kafka::ProducerRecord{.value = value}, false)
        .status()
        .expect_ok();
  }
  beam::Pipeline pipeline;
  pipeline
      .apply(beam::KafkaIO::read(broker, beam::KafkaReadConfig{.topic = "in"}))
      .apply(beam::KafkaIO::without_metadata())
      .apply(beam::Values<Payload>::create<Payload>())
      .apply(beam::KafkaIO::write(broker, beam::KafkaWriteConfig{.topic = "out"}));
  beam::DirectRunner runner;
  pipeline.run(runner).status().expect_ok();
  std::vector<kafka::StoredRecord> stored;
  broker.fetch({"out", 0}, 0, 1'000'000, stored).status().expect_ok();
  std::vector<std::string> values;
  for (const auto& record : stored) values.push_back(record.value.str());
  std::sort(values.begin(), values.end());
  return values;
}

TEST(ShutdownContractTest, FlinkCancelMidStreamLosesNoAcceptedRecord) {
  // An unbounded source emits a gapless sequence until cancelled. Every
  // value it managed to emit ("accepted") must reach the sink exactly once
  // — cancel() drains in pipeline order and the Router flushes its staged
  // per-channel buffers instead of dropping them.
  class SequenceSource final : public flink::SourceFunction {
   public:
    explicit SequenceSource(std::atomic<int>* emitted) : emitted_(emitted) {}
    void run(flink::SourceContext& context) override {
      int i = 0;
      while (!context.cancelled()) {
        context.collect(flink::make_elem<int>(i++));
        emitted_->store(i);
      }
    }

   private:
    std::atomic<int>* emitted_;
  };

  flink::StreamExecutionEnvironment env;
  auto emitted = std::make_shared<std::atomic<int>>(0);
  auto delivered = std::make_shared<std::vector<int>>();
  auto mutex = std::make_shared<std::mutex>();
  env.add_source<int>([emitted] {
       return std::make_unique<SequenceSource>(emitted.get());
     })
      .for_each([delivered, mutex](const int& v) {
        std::lock_guard lock(*mutex);
        delivered->push_back(v);
      });
  auto handle = env.execute_async();
  ASSERT_TRUE(handle.is_ok());
  while (emitted->load() < 500) std::this_thread::yield();
  handle.value()->cancel();
  const flink::JobResult result = handle.value()->wait();
  EXPECT_TRUE(result.job_status.is_ok());

  // Exactly once: the delivered stream is exactly 0..n-1, no gap (a gap
  // would mean a staged record was dropped on stop), no duplicate.
  std::lock_guard lock(*mutex);
  std::sort(delivered->begin(), delivered->end());
  ASSERT_FALSE(delivered->empty());
  for (std::size_t i = 0; i < delivered->size(); ++i) {
    ASSERT_EQ((*delivered)[i], static_cast<int>(i));
  }
}

TEST(ShutdownContractTest, SparkStopMidStreamMatchesDirectRunner) {
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  spark::StreamingContext ssc(spark::SparkConf{.default_parallelism = 2}, 5);
  auto delivered = std::make_shared<std::vector<std::string>>();
  auto mutex = std::make_shared<std::mutex>();
  ssc.kafka_direct_stream(broker, "in")
      .foreach_rdd([delivered, mutex](
                       spark::SparkContext& sc,
                       const spark::RDDPtr<kafka::Payload>& rdd) {
        for (auto& value : sc.collect(rdd)) {
          std::lock_guard lock(*mutex);
          delivered->push_back(value.str());
        }
      });
  ASSERT_TRUE(ssc.start().is_ok());
  std::vector<std::string> produced;
  for (int i = 0; i < 40; ++i) {
    produced.push_back("rec-" + std::to_string(i));
    broker.append({"in", 0}, kafka::ProducerRecord{.value = produced.back()},
                  false)
        .status()
        .expect_ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ssc.stop();  // mid-stream: the final drain batch collects the tail

  // Every produced record was accepted before stop (the graceful-stop drain
  // fetches whatever the inputs still held), so accepted == produced and
  // delivery must match the DirectRunner over that same input.
  const auto snapshot = ssc.metrics();
  std::lock_guard lock(*mutex);
  EXPECT_EQ(snapshot.counter("input.records"), delivered->size());
  std::sort(delivered->begin(), delivered->end());
  EXPECT_EQ(*delivered, direct_runner_reference(produced));
}

TEST(ShutdownContractTest, ApexShutdownMatchesDirectRunner) {
  yarn::ResourceManager rm;
  rm.add_node("worker-0", yarn::Resource{8, 16384});
  kafka::Broker broker;
  broker.create_topic("in", kafka::TopicConfig{.partitions = 1}).expect_ok();
  broker.create_topic("out", kafka::TopicConfig{.partitions = 1}).expect_ok();
  std::vector<std::string> produced;
  for (int i = 0; i < 300; ++i) {
    produced.push_back("tuple-" + std::to_string(i));
    broker.append({"in", 0}, kafka::ProducerRecord{.value = produced.back()},
                  false)
        .status()
        .expect_ok();
  }

  apex::Dag dag;
  const int input = dag.add_input_operator(
      "reader", apex::kafka_input_factory(broker, "in"));
  const int identity = dag.add_operator(
      "identity",
      apex::map_payload_factory([](const Payload& p) { return p; }));
  const int output = dag.add_operator(
      "writer", apex::kafka_output_factory(
                    broker, apex::KafkaPayloadOutput::Config{.topic = "out"}));
  dag.add_stream("a", apex::PortRef{input, 0}, apex::PortRef{identity, 0},
                 apex::Locality::kContainerLocal, {});
  dag.add_stream("b", apex::PortRef{identity, 0}, apex::PortRef{output, 0},
                 apex::Locality::kNodeLocal, apex::payload_codec());
  auto stats = apex::launch_application(rm, dag, apex::EngineConfig{});
  stats.status().expect_ok();

  // Shutdown is the engine-initiated drain: EOS propagates reader ->
  // identity -> writer, so the final window flushes before containers stop.
  std::vector<kafka::StoredRecord> stored;
  broker.fetch({"out", 0}, 0, 1'000'000, stored).status().expect_ok();
  std::vector<std::string> delivered;
  for (const auto& record : stored) delivered.push_back(record.value.str());
  std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, direct_runner_reference(produced));
  EXPECT_EQ(stats.value().counter("operator.identity.tuples_in"), 300u);
}

}  // namespace
}  // namespace dsps
