// The 24-setup correctness matrix: every query on every engine with both
// SDKs, at parallelism 1 and 2, must produce the result the query defines
// (identical to a reference computed directly from the generator). This is
// the "single implementation, any engine" property (§I) plus the guarantee
// that native and Beam implementations compute the same thing — without
// which the paper's performance comparison would be meaningless.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "queries/query_factory.hpp"
#include "workload/aol_generator.hpp"
#include "workload/data_sender.hpp"

namespace dsps::queries {
namespace {

using workload::QueryId;

constexpr std::uint64_t kRecords = 2000;
constexpr std::uint64_t kSeed = 42;

struct Setup {
  Engine engine;
  Sdk sdk;
  int parallelism;
};

std::string setup_name(const ::testing::TestParamInfo<Setup>& info) {
  return std::string(engine_name(info.param.engine)) +
         (info.param.sdk == Sdk::kBeam ? "Beam" : "Native") + "P" +
         std::to_string(info.param.parallelism);
}

std::vector<Setup> all_setups() {
  std::vector<Setup> setups;
  for (const Engine engine : {Engine::kFlink, Engine::kSpark, Engine::kApex}) {
    for (const Sdk sdk : {Sdk::kNative, Sdk::kBeam}) {
      for (const int parallelism : {1, 2}) {
        setups.push_back(Setup{engine, sdk, parallelism});
      }
    }
  }
  return setups;
}

/// Fixture: a broker pre-loaded with the workload, shared per test case.
class QueryMatrixTest : public ::testing::TestWithParam<Setup> {
 protected:
  void SetUp() override {
    workload::create_benchmark_topic(broker_, "in").expect_ok();
    workload::create_benchmark_topic(broker_, "out").expect_ok();
    workload::AolGenerator generator(
        {.record_count = kRecords, .seed = kSeed});
    workload::DataSender sender(broker_,
                                workload::DataSenderConfig{.topic = "in"});
    sender.send_generated(generator).status().expect_ok();
    input_lines_ = generator.all_lines();
  }

  Status run(QueryId query) {
    QueryContext ctx;
    ctx.broker = &broker_;
    ctx.input_topic = "in";
    ctx.output_topic = "out";
    ctx.parallelism = GetParam().parallelism;
    ctx.seed = kSeed;
    return run_query(GetParam().engine, GetParam().sdk, query, ctx);
  }

  std::vector<std::string> output() {
    std::vector<kafka::StoredRecord> stored;
    broker_.fetch({"out", 0}, 0, 10 * kRecords, stored)
        .status()
        .expect_ok();
    std::vector<std::string> values;
    values.reserve(stored.size());
    for (auto& record : stored) values.push_back(record.value.str());
    return values;
  }

  kafka::Broker broker_;
  std::vector<std::string> input_lines_;
};

TEST_P(QueryMatrixTest, IdentityOutputsExactInputSet) {
  ASSERT_TRUE(run(QueryId::kIdentity).is_ok());
  auto out = output();
  ASSERT_EQ(out.size(), kRecords);
  std::vector<std::string> expected = input_lines_;
  std::sort(out.begin(), out.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
}

TEST_P(QueryMatrixTest, ProjectionOutputsFirstColumns) {
  ASSERT_TRUE(run(QueryId::kProjection).is_ok());
  auto out = output();
  ASSERT_EQ(out.size(), kRecords);
  std::vector<std::string> expected;
  expected.reserve(kRecords);
  for (const auto& line : input_lines_) {
    expected.push_back(workload::projection_of(line));
  }
  std::sort(out.begin(), out.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
}

TEST_P(QueryMatrixTest, GrepOutputsExactlyTheMatches) {
  ASSERT_TRUE(run(QueryId::kGrep).is_ok());
  auto out = output();
  std::vector<std::string> expected;
  for (const auto& line : input_lines_) {
    if (workload::grep_matches(line)) expected.push_back(line);
  }
  std::sort(out.begin(), out.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
}

TEST_P(QueryMatrixTest, SampleKeepsRoughlyFortyPercentOfInput) {
  ASSERT_TRUE(run(QueryId::kSample).is_ok());
  auto out = output();
  // Statistical bound: 2000 Bernoulli(0.4) trials — allow generous slack.
  EXPECT_GT(out.size(), kRecords * 30 / 100);
  EXPECT_LT(out.size(), kRecords * 50 / 100);
  // Every output record must be an input record.
  std::set<std::string> inputs(input_lines_.begin(), input_lines_.end());
  for (const auto& line : out) {
    EXPECT_TRUE(inputs.contains(line)) << "sample fabricated: " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSetups, QueryMatrixTest,
                         ::testing::ValuesIn(all_setups()), setup_name);

// --- factory validation -----------------------------------------------------------

TEST(QueryFactoryTest, RejectsNullBroker) {
  QueryContext ctx;
  EXPECT_EQ(run_query(Engine::kFlink, Sdk::kNative, QueryId::kGrep, ctx)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryFactoryTest, RejectsMissingTopics) {
  kafka::Broker broker;
  QueryContext ctx;
  ctx.broker = &broker;
  ctx.input_topic = "nope";
  ctx.output_topic = "also-nope";
  EXPECT_EQ(run_query(Engine::kSpark, Sdk::kBeam, QueryId::kGrep, ctx).code(),
            StatusCode::kNotFound);
}

// --- execution plans (Figs. 12/13) --------------------------------------------------

TEST(QueryPlanTest, NativeFlinkGrepPlanHasThreeChainedElements) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, "in").expect_ok();
  workload::create_benchmark_topic(broker, "out").expect_ok();
  QueryContext ctx{&broker, "in", "out", 1, kSeed};
  auto plan = execution_plan(Engine::kFlink, Sdk::kNative, QueryId::kGrep, ctx);
  ASSERT_TRUE(plan.is_ok());
  // Fig. 12: Source -> Filter -> Sink fused into one chained vertex.
  EXPECT_NE(
      plan.value().find("Source: Custom Source -> Filter -> Sink: Unnamed"),
      std::string::npos);
}

TEST(QueryPlanTest, BeamFlinkGrepPlanHasSevenUnfusedElements) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, "in").expect_ok();
  workload::create_benchmark_topic(broker, "out").expect_ok();
  QueryContext ctx{&broker, "in", "out", 1, kSeed};
  auto plan = execution_plan(Engine::kFlink, Sdk::kBeam, QueryId::kGrep, ctx);
  ASSERT_TRUE(plan.is_ok());
  int vertices = 0;
  std::size_t pos = 0;
  while ((pos = plan.value().find("\n[", pos)) != std::string::npos) {
    ++vertices;
    ++pos;
  }
  // First vertex's "[0]" is at the start (no leading newline): count it too.
  EXPECT_EQ(vertices + 1, 7);
}

TEST(QueryPlanTest, NativeApexPlanIsSingleContainerAtP1) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, "in").expect_ok();
  workload::create_benchmark_topic(broker, "out").expect_ok();
  QueryContext ctx{&broker, "in", "out", 1, kSeed};
  auto plan = execution_plan(Engine::kApex, Sdk::kNative, QueryId::kGrep, ctx);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_NE(plan.value().find("Container 0"), std::string::npos);
  EXPECT_EQ(plan.value().find("Container 1"), std::string::npos);
  EXPECT_NE(plan.value().find("THREAD_LOCAL"), std::string::npos);
}

TEST(QueryPlanTest, BeamApexPlanSpreadsContainers) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, "in").expect_ok();
  workload::create_benchmark_topic(broker, "out").expect_ok();
  QueryContext ctx{&broker, "in", "out", 1, kSeed};
  auto plan = execution_plan(Engine::kApex, Sdk::kBeam, QueryId::kGrep, ctx);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_NE(plan.value().find("Container 6"), std::string::npos);
}

TEST(QueryPlanTest, SparkHasNoStaticPlan) {
  kafka::Broker broker;
  workload::create_benchmark_topic(broker, "in").expect_ok();
  workload::create_benchmark_topic(broker, "out").expect_ok();
  QueryContext ctx{&broker, "in", "out", 1, kSeed};
  EXPECT_EQ(execution_plan(Engine::kSpark, Sdk::kNative, QueryId::kGrep, ctx)
                .status()
                .code(),
            StatusCode::kUnsupported);
}

}  // namespace
}  // namespace dsps::queries
