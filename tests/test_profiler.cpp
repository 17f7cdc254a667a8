// Tests for the cost-attribution profiler (src/runtime/profiler.hpp) and the
// unified operator invoker that feeds it:
//   - stage attribution sums to busy wall time within tolerance at
//     sample_stride=1, with nested scopes decomposing into self-times;
//   - a disarmed profiler attributes nothing and invoker helpers stay
//     transparent pass-throughs;
//   - stride sampling scales recorded costs back up to the true totals;
//   - fused Beam composites attribute per member, not per composite;
//   - per-thread slab flushes race-cleanly against live snapshots (the
//     TSan job runs this binary).
// The armed profiler's <2% overhead budget is a timing property, gated by
// profile_smoke and scripts/check_perf_regression.py rather than here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "beam/element.hpp"
#include "beam/fusion.hpp"
#include "beam/stage.hpp"
#include "runtime/invoker.hpp"
#include "runtime/profiler.hpp"

namespace dsps {
namespace {

using runtime::OperatorInvoker;
using runtime::Profiler;
using runtime::ProfilerConfig;
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
  profiler.arm(ProfilerConfig{.sample_stride = 1, .start_sampler = false});

  const std::uint32_t op = profiler.operator_id("test.attribution");
  const auto wall_start = std::chrono::steady_clock::now();
  {
    // Nested scopes: the outer user_fn must record only its *self* time,
    // the inner decode its own — no double counting.
    ScopedStage user_fn(Stage::kUserFn, ScopedStage::Mode::kSampled, op);
    spin_for_us(3'000);
    {
      ScopedStage decode(Stage::kDecode, ScopedStage::Mode::kSampled, op);
      spin_for_us(2'000);
    }
  }
  {
    ScopedStage wait(Stage::kQueueWait, ScopedStage::Mode::kAlways);
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
        snap.stages[static_cast<std::size_t>(stage)].total_us);
  };
  // Each stage within +-35% of what was actually spun there. Generous:
  // a preempted spin loop legitimately runs long, and the scope measures
  // the same wall the spin does.
  EXPECT_GT(stage_us(Stage::kUserFn), 3'000.0 * 0.65);
  EXPECT_LT(stage_us(Stage::kUserFn), 3'000.0 * 1.35 + wall_us - 6'000.0);
  EXPECT_GT(stage_us(Stage::kDecode), 2'000.0 * 0.65);
  EXPECT_GT(stage_us(Stage::kQueueWait), 1'000.0 * 0.65);
  // And the total attribution accounts for the busy wall time: no stage
  // lost, no stage counted twice.
  const double attributed = static_cast<double>(snap.attributed_us());
  EXPECT_GT(attributed, wall_us * 0.75);
  EXPECT_LT(attributed, wall_us * 1.25);
  // Per-operator attribution carries the user_fn cost under the site name.
  ASSERT_TRUE(snap.operators.contains("test.attribution"));
  EXPECT_GT(snap.operators.at("test.attribution").total_us, 0u);
}

TEST_F(ProfilerTest, DisarmedScopesAttributeNothing) {
  auto& profiler = Profiler::instance();
  // Arm+disarm to reset, then verify totals stay frozen while disarmed.
  profiler.arm(ProfilerConfig{.sample_stride = 1, .start_sampler = false});
  profiler.disarm();
  const ProfileSnapshot before = profiler.snapshot();
  {
    ScopedStage user_fn(Stage::kUserFn);
    spin_for_us(500);
    ScopedStage wait(Stage::kQueueWait, ScopedStage::Mode::kAlways);
    spin_for_us(500);
  }
  profiler.flush_this_thread();
  const ProfileSnapshot delta = profiler.snapshot().since(before);
  EXPECT_EQ(delta.attributed_us(), 0u);
  for (std::size_t s = 0; s < runtime::kStageCount; ++s) {
    EXPECT_EQ(delta.stages[s].calls, 0u);
  }
}

TEST_F(ProfilerTest, DisarmedInvokerIsTransparent) {
  OperatorInvoker invoker("test.transparent");
  EXPECT_EQ(invoker.decode([] { return 7; }), 7);
  EXPECT_EQ(invoker.encode([] { return std::string("x"); }), "x");
  EXPECT_EQ(invoker.queue_wait([] { return 42u; }), 42u);
  int calls = 0;
  invoker.invoke([&] { ++calls; });
  invoker.invoke_unfaulted([&] { ++calls; });
  invoker.broker_rtt([&] { ++calls; });
  invoker.checkpoint([&] { ++calls; });
  EXPECT_EQ(calls, 4);
}

TEST_F(ProfilerTest, StrideSamplingScalesBackToTrueTotals) {
  auto& profiler = Profiler::instance();
  profiler.arm(ProfilerConfig{.sample_stride = 4, .start_sampler = false});
  const std::uint32_t op = profiler.operator_id("test.stride");

  constexpr int kScopes = 400;
  constexpr std::int64_t kSpinUs = 20;
  for (int i = 0; i < kScopes; ++i) {
    ScopedStage scope(Stage::kUserFn, ScopedStage::Mode::kSampled, op);
    spin_for_us(kSpinUs);
  }
  profiler.flush_this_thread();

  const ProfileSnapshot snap = profiler.snapshot();
  const auto& user_fn = snap.stages[static_cast<std::size_t>(Stage::kUserFn)];
  // One in four scopes actually timed...
  EXPECT_EQ(user_fn.samples, kScopes / 4);
  // ...but weights scale calls and time back to the population.
  EXPECT_EQ(user_fn.calls, static_cast<std::uint64_t>(kScopes));
  const double true_total_us = static_cast<double>(kScopes) * kSpinUs;
  EXPECT_GT(static_cast<double>(user_fn.total_us), true_total_us * 0.6);
  EXPECT_LT(static_cast<double>(user_fn.total_us), true_total_us * 1.6);
}

// A fused composite must attribute each member under its own
// "beam.<name>" site — fusing stages never loses breakdown resolution.
TEST_F(ProfilerTest, FusedStageAttributesPerMember) {
  class SpinStage final : public beam::StageExecutor {
   public:
    explicit SpinStage(std::int64_t spin_us) : spin_us_(spin_us) {}
    void process(const beam::Element& element,
                 const beam::Emit& emit) override {
      spin_for_us(spin_us_);
      beam::Element out = element;
      emit(std::move(out));
    }
    void finish(const beam::Emit& /*emit*/) override {}

   private:
    std::int64_t spin_us_;
  };

  auto& profiler = Profiler::instance();
  profiler.arm(ProfilerConfig{.sample_stride = 1, .start_sampler = false});

  const beam::StageFactory fused = beam::fused_stage(
      {[] { return std::make_unique<SpinStage>(300); },
       [] { return std::make_unique<SpinStage>(900); }},
      {"First", "Second"});
  const auto executor = fused();
  executor->start();
  int emitted = 0;
  const beam::Emit sink = [&emitted](beam::Element&&) { ++emitted; };
  for (int i = 0; i < 10; ++i) {
    executor->process(beam::make_element(std::string("r")), sink);
  }
  executor->finish(sink);
  profiler.flush_this_thread();

  EXPECT_EQ(emitted, 10);
  const ProfileSnapshot snap = profiler.snapshot();
  ASSERT_TRUE(snap.operators.contains("beam.First"));
  ASSERT_TRUE(snap.operators.contains("beam.Second"));
  const auto& first = snap.operators.at("beam.First");
  const auto& second = snap.operators.at("beam.Second");
  EXPECT_EQ(first.samples, 10u);
  EXPECT_EQ(second.samples, 10u);
  // The outer member's user_fn is *self* time: its nested call into the
  // second member must not be counted against it, so the 3:9 spin ratio
  // survives (within tolerance).
  EXPECT_GT(second.total_us, first.total_us);
  EXPECT_GT(static_cast<double>(first.total_us), 300.0 * 10 * 0.5);
  EXPECT_LT(static_cast<double>(first.total_us), 300.0 * 10 * 2.0);
}

// Hammer thread-local flushes against live snapshot readers; the TSan job
// runs this binary, so any unsynchronized publish shows up there. Counts
// are exact at stride 1 once every thread flushed.
TEST_F(ProfilerTest, ConcurrentFlushesAndSnapshotsAreRaceClean) {
  auto& profiler = Profiler::instance();
  profiler.arm(ProfilerConfig{
      .sample_stride = 1, .sampler_interval_ms = 1, .start_sampler = true});

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
        ScopedStage scope(Stage::kUserFn, ScopedStage::Mode::kSampled, op);
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
  for (int t = 0; t < kThreads; ++t) {
    const std::string name = "test.race." + std::to_string(t);
    ASSERT_TRUE(snap.operators.contains(name)) << name;
    EXPECT_EQ(snap.operators.at(name).calls,
              static_cast<std::uint64_t>(kScopesPerThread));
  }
}

}  // namespace
}  // namespace dsps
