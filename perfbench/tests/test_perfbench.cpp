// Tests of the benchmark's own machinery: the output oracle, input
// determinism, the open-loop backlog rule and span self time. That printed
// metric names match BENCHMARK.json is checked by `run.py --selftest`.
#include <gtest/gtest.h>

#include <thread>

#include "open_loop.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "workload/aol_generator.hpp"

namespace perfbench {
namespace {

using dsps::kafka::StoredRecord;
using dsps::workload::QueryId;

/// An output log holding `lines`, appended `per_append` records at a time
/// with one microsecond between appends.
std::vector<StoredRecord> log_of(const std::vector<std::string>& lines,
                                 std::size_t per_append) {
  std::vector<StoredRecord> log;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    log.push_back(StoredRecord{
        .offset = static_cast<std::int64_t>(i),
        .value = lines[i],
        .timestamp = 1'000 + static_cast<dsps::Timestamp>(i / per_append)});
  }
  return log;
}

TEST(OracleTest, AcceptsExactOutputAndCountsAppends) {
  const auto input = generate_input(500, 7);
  const auto expected = reference_output(QueryId::kIdentity, input);
  const OutputCheck check = check_output(log_of(expected, 10), expected);
  EXPECT_TRUE(check.ok) << check.reason;
  EXPECT_EQ(check.records, 500);
  EXPECT_EQ(check.append_runs, 50);
  EXPECT_EQ(check.last_append - check.first_append, 49);
}

TEST(OracleTest, RejectsTruncatedOutput) {
  const auto expected = reference_output(QueryId::kIdentity,
                                         generate_input(100, 7));
  auto truncated = expected;
  truncated.pop_back();
  const OutputCheck check = check_output(log_of(truncated, 1), expected);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("missing 1"), std::string::npos) << check.reason;
}

TEST(OracleTest, RejectsDuplicatedOutput) {
  const auto expected = reference_output(QueryId::kIdentity,
                                         generate_input(100, 7));
  auto duplicated = expected;
  duplicated.insert(duplicated.begin() + 40, expected[39]);
  const OutputCheck middle = check_output(log_of(duplicated, 1), expected);
  EXPECT_FALSE(middle.ok);
  EXPECT_NE(middle.reason.find("duplicate"), std::string::npos)
      << middle.reason;

  auto tail = expected;
  tail.push_back(expected.back());
  const OutputCheck at_end = check_output(log_of(tail, 1), expected);
  EXPECT_FALSE(at_end.ok);
  EXPECT_NE(at_end.reason.find("extra"), std::string::npos) << at_end.reason;
}

TEST(OracleTest, RejectsReorderedOutput) {
  const auto expected = reference_output(QueryId::kIdentity,
                                         generate_input(100, 7));
  auto reordered = expected;
  std::swap(reordered[10], reordered[11]);
  EXPECT_FALSE(check_output(log_of(reordered, 1), expected).ok);
}

TEST(OracleTest, RejectsSingleAppendOutput) {
  const auto expected = reference_output(QueryId::kIdentity,
                                         generate_input(100, 7));
  const OutputCheck check =
      check_output(log_of(expected, expected.size()), expected);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.append_runs, 1);
  EXPECT_NE(check.reason.find("zero append span"), std::string::npos)
      << check.reason;
}

TEST(OracleTest, GrepReferenceKeepsTheGeneratorsMatchesInOrder) {
  const auto input = generate_input(200'000, 3);
  const auto expected = reference_output(QueryId::kGrep, input);
  const dsps::workload::AolGenerator generator(
      dsps::workload::AolGeneratorConfig{.record_count = 200'000, .seed = 3});
  ASSERT_EQ(expected.size(), generator.grep_match_count());
  std::size_t next = 0;
  for (std::uint64_t i = 0; i < input.size(); ++i) {
    if (generator.is_grep_match(i)) {
      EXPECT_EQ(expected[next++], input[i]);
    }
  }
}

TEST(InputTest, SameSeedGivesByteIdenticalInputs) {
  EXPECT_EQ(generate_input(5'000, 11), generate_input(5'000, 11));
  EXPECT_NE(generate_input(5'000, 11), generate_input(5'000, 12));
}

TEST(OpenLoopTest, FlatBacklogIsSustainableAndGrowingIsNot) {
  std::vector<std::pair<std::int64_t, std::int64_t>> flat;
  std::vector<std::pair<std::int64_t, std::int64_t>> growing;
  for (std::int64_t t = 0; t < 1'000; t += 10) {
    flat.emplace_back(t, 50 + (t / 10) % 7);
    growing.emplace_back(t, t * 3);
  }
  EXPECT_FALSE(backlog_growing(flat, 1'000, 100));
  EXPECT_TRUE(backlog_growing(growing, 1'000, 100));
}

TEST(OpenLoopTest, OffersEveryRecordInOrderAndSeals) {
  dsps::kafka::Broker broker;
  const dsps::kafka::TopicConfig config{
      .timestamp_type = dsps::kafka::TimestampType::kLogAppendTime};
  ASSERT_TRUE(broker.create_topic("in", config).is_ok());
  ASSERT_TRUE(broker.create_topic("out", config).is_ok());
  const auto input = generate_input(400, 5);
  OpenLoopDriver driver(broker, input, 20'000.0, "in", "out");
  driver.start();
  const OpenLoopReport report = driver.finish();
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.sent, 400);
  EXPECT_TRUE(broker.topic_sealed("in"));
  // Nothing consumes: the backlog is everything offered so far.
  EXPECT_GT(report.backlog_max, 0);
  EXPECT_EQ(driver.due_wall_us(20'000) - driver.due_wall_us(0), 1'000'000);
  std::vector<StoredRecord> stored;
  ASSERT_TRUE(broker.fetch({"in", 0}, 0, 1'000, stored).is_ok());
  ASSERT_EQ(stored.size(), input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(stored[i].value.view(), input[i]);
  }
}

TEST(SpanTest, SelfTimeExcludesChildren) {
  SpanRecorder recorder(true);
  {
    auto outer = recorder.open("outer", 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      auto inner = recorder.open("inner", 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  const auto totals = recorder.totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].self_us, totals[0].total_us - totals[1].total_us);
  EXPECT_GE(totals[1].total_us, 5'000);
  EXPECT_EQ(totals[1].self_us, totals[1].total_us);

  SpanRecorder disabled(false);
  { auto ignored = disabled.open("outer", 0); }
  EXPECT_TRUE(disabled.spans().empty());
}

}  // namespace
}  // namespace perfbench
