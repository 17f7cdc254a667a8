// Tests for the cost-attribution profiler (src/runtime/profiler.hpp) and the
// unified operator invoker that feeds it:
//   - stage attribution sums to busy wall time within tolerance, with nested
//     scopes decomposing into self-times;
//   - a disarmed profiler attributes nothing and invoker helpers stay
//     transparent pass-throughs;
//   - per-thread slab flushes race-cleanly against live snapshots (the
//     TSan job runs this binary);
//   - every P1 setup of the matrix attributes time, and never more than the
//     busy time of the threads it profiles.
// The armed profiler's <2% overhead budget is a timing property, gated by
// `dataplane profile` and scripts/check_perf_regression.py rather than here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "harness/benchmark.hpp"
#include "runtime/invoker.hpp"
#include "runtime/profiler.hpp"

namespace dsps {
namespace {

using runtime::OperatorInvoker;
using runtime::Profiler;
using runtime::ProfileSnapshot;
using runtime::ScopedStage;
using runtime::Stage;

// Busy-spin so the scope's wall time is real CPU-visible time (sleeping
// would measure the scheduler, not the profiler).
void spin_for_us(std::int64_t us) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

// Every test begins disarmed; arm() inside a test resets all accumulated
// costs.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { Profiler::instance().disarm(); }
  void TearDown() override { Profiler::instance().disarm(); }
};

TEST_F(ProfilerTest, StageAttributionSumsToBusyWallTime) {
  auto& profiler = Profiler::instance();
  profiler.arm();

  const std::uint32_t op = profiler.operator_id("test.attribution");
  const auto wall_start = std::chrono::steady_clock::now();
  {
    // Nested scopes: the outer user_fn must record only its *self* time,
    // the inner broker_rtt its own — no double counting.
    ScopedStage user_fn(Stage::kUserFn, op);
    spin_for_us(3'000);
    {
      ScopedStage rtt(Stage::kBrokerRtt, op);
      spin_for_us(2'000);
    }
  }
  {
    ScopedStage wait(Stage::kQueueWait);
    spin_for_us(1'000);
  }
  const double wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  profiler.flush_this_thread();

  const ProfileSnapshot snap = profiler.snapshot();
  const auto stage_us = [&](Stage stage) {
    return static_cast<double>(
               snap.stages[static_cast<std::size_t>(stage)].total_ns) /
           1e3;
  };
  // Each stage within +-35% of what was actually spun there. Generous:
  // a preempted spin loop legitimately runs long, and the scope measures
  // the same wall the spin does.
  EXPECT_GT(stage_us(Stage::kUserFn), 3'000.0 * 0.65);
  EXPECT_LT(stage_us(Stage::kUserFn), 3'000.0 * 1.35 + wall_us - 6'000.0);
  EXPECT_GT(stage_us(Stage::kBrokerRtt), 2'000.0 * 0.65);
  EXPECT_GT(stage_us(Stage::kQueueWait), 1'000.0 * 0.65);
  // Every scope is timed once: one call per stage.
  EXPECT_EQ(snap.stages[static_cast<std::size_t>(Stage::kUserFn)].calls, 1u);
  EXPECT_EQ(snap.stages[static_cast<std::size_t>(Stage::kBrokerRtt)].calls,
            1u);
  // Busy time is the two root scopes' wall time; the nested broker_rtt adds
  // none. The attribution accounts for it: no stage lost, none counted
  // twice.
  const double busy = static_cast<double>(snap.busy_us());
  EXPECT_GT(busy, 6'000.0 * 0.95);
  EXPECT_LE(busy, wall_us);
  const double attributed = static_cast<double>(snap.attributed_us());
  EXPECT_LE(attributed, busy);
  EXPECT_GT(attributed, busy * 0.99);
  // Per-operator attribution carries both scopes under the site name.
  ASSERT_TRUE(snap.operators.contains("test.attribution"));
  EXPECT_EQ(snap.operators.at("test.attribution").calls, 2u);
  EXPECT_GT(snap.operators.at("test.attribution").total_ns, 0u);
}

TEST_F(ProfilerTest, DisarmedScopesAttributeNothing) {
  auto& profiler = Profiler::instance();
  // Arm+disarm to reset, then verify totals stay frozen while disarmed.
  profiler.arm();
  profiler.disarm();
  const ProfileSnapshot before = profiler.snapshot();
  {
    ScopedStage user_fn(Stage::kUserFn);
    spin_for_us(500);
    ScopedStage wait(Stage::kQueueWait);
    spin_for_us(500);
  }
  profiler.flush_this_thread();
  const ProfileSnapshot delta = profiler.snapshot().since(before);
  EXPECT_EQ(delta.attributed_us(), 0u);
  EXPECT_EQ(delta.busy_us(), 0u);
  for (std::size_t s = 0; s < runtime::kStageCount; ++s) {
    EXPECT_EQ(delta.stages[s].calls, 0u);
  }
}

TEST_F(ProfilerTest, DisarmedInvokerIsTransparent) {
  OperatorInvoker invoker("test.transparent");
  EXPECT_EQ(invoker.queue_wait([] { return 42u; }), 42u);
  EXPECT_EQ(invoker.invoke_unfaulted([] { return std::string("x"); }), "x");
  int calls = 0;
  invoker.maybe_fault();
  invoker.broker_rtt([&] { ++calls; });
  invoker.checkpoint([&] { ++calls; });
  EXPECT_EQ(calls, 2);
}

// Hammer thread-local flushes against a live snapshot reader; the TSan job
// runs this binary, so any unsynchronized publish shows up there. Counts
// are exact once every thread flushed.
TEST_F(ProfilerTest, ConcurrentFlushesAndSnapshotsAreRaceClean) {
  auto& profiler = Profiler::instance();
  profiler.arm();

  constexpr int kThreads = 4;
  constexpr int kScopesPerThread = 20'000;
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    while (!stop_reader.load(std::memory_order_relaxed)) {
      (void)Profiler::instance().snapshot();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      const std::uint32_t op = Profiler::instance().operator_id(
          "test.race." + std::to_string(t));
      for (int i = 0; i < kScopesPerThread; ++i) {
        ScopedStage scope(Stage::kUserFn, op);
      }
      Profiler::instance().flush_this_thread();
    });
  }
  for (auto& worker : workers) worker.join();
  stop_reader.store(true, std::memory_order_relaxed);
  reader.join();

  const ProfileSnapshot snap = profiler.snapshot();
  EXPECT_EQ(snap.stages[static_cast<std::size_t>(Stage::kUserFn)].calls,
            static_cast<std::uint64_t>(kThreads) * kScopesPerThread);
  EXPECT_LE(snap.attributed_us(), snap.busy_us());
  for (int t = 0; t < kThreads; ++t) {
    const std::string name = "test.race." + std::to_string(t);
    ASSERT_TRUE(snap.operators.contains(name)) << name;
    EXPECT_EQ(snap.operators.at(name).calls,
              static_cast<std::uint64_t>(kScopesPerThread));
  }
}

// The reconciliation gate of `dataplane profile`, at test scale: every P1
// setup (3 engines x 2 SDKs x 4 queries) armed through the harness must
// attribute time — it reaches a profiled loop — and never more than the
// busy time of the threads it profiled.
TEST_F(ProfilerTest, AttributionReconcilesOnEverySetup) {
  harness::HarnessConfig config;
  config.records = 3'000;
  config.runs = 1;
  config.profile = true;
  harness::BenchmarkHarness harness(config);
  ASSERT_TRUE(Profiler::instance().armed());
  for (const auto engine : {queries::Engine::kFlink, queries::Engine::kSpark,
                            queries::Engine::kApex}) {
    for (const auto sdk : {queries::Sdk::kNative, queries::Sdk::kBeam}) {
      for (const auto query :
           {workload::QueryId::kIdentity, workload::QueryId::kSample,
            workload::QueryId::kProjection, workload::QueryId::kGrep}) {
        const harness::SetupKey key{
            .engine = engine, .sdk = sdk, .query = query, .parallelism = 1};
        const std::string label = harness::setup_label(key) + " " +
                                  workload::query_info(query).name;
        auto measured = harness.run_setup(key);
        ASSERT_TRUE(measured.is_ok()) << label;
        const ProfileSnapshot& profile = measured.value().profile;
        EXPECT_GT(profile.attributed_us(), 0u) << label;
        EXPECT_LE(profile.attributed_us(), profile.busy_us()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace dsps
