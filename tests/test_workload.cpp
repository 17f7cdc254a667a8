// Tests for the workload module: the AOL-like generator's schema and
// selectivities, the data sender, and the StreamBench query logic.
#include <gtest/gtest.h>

#include <set>

#include "common/strings.hpp"
#include "runtime/fault.hpp"
#include "workload/aol_generator.hpp"
#include "workload/data_sender.hpp"
#include "workload/streambench.hpp"

namespace dsps::workload {
namespace {

TEST(AolGeneratorTest, RecordHasFiveTabSeparatedColumns) {
  AolGenerator generator({.record_count = 100, .seed = 1});
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto fields = split(generator.record_at(i).to_line(), '\t');
    ASSERT_EQ(fields.size(), 5u) << "record " << i;
    EXPECT_FALSE(fields[0].empty());  // user id
    EXPECT_FALSE(fields[1].empty());  // query
    EXPECT_FALSE(fields[2].empty());  // timestamp
  }
}

TEST(AolGeneratorTest, DeterministicInSeed) {
  AolGenerator a({.record_count = 50, .seed = 7});
  AolGenerator b({.record_count = 50, .seed = 7});
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.record_at(i).to_line(), b.record_at(i).to_line());
  }
}

TEST(AolGeneratorTest, DifferentSeedsProduceDifferentData) {
  AolGenerator a({.record_count = 50, .seed = 1});
  AolGenerator b({.record_count = 50, .seed = 2});
  int same = 0;
  for (std::uint64_t i = 0; i < 50; ++i) {
    same += a.record_at(i).to_line() == b.record_at(i).to_line();
  }
  EXPECT_LT(same, 3);
}

TEST(AolGeneratorTest, RecordAccessIsOrderIndependent) {
  AolGenerator generator({.record_count = 100, .seed = 3});
  const auto forward = generator.record_at(10).to_line();
  (void)generator.record_at(99);
  (void)generator.record_at(0);
  EXPECT_EQ(generator.record_at(10).to_line(), forward);
}

TEST(AolGeneratorTest, GrepSelectivityMatchesPaperAtFullScale) {
  // The paper: 3,003 matches out of 1,000,001 records (~0.3003%).
  AolGenerator generator({.record_count = 1'000'001, .seed = 42});
  const double ratio = static_cast<double>(generator.grep_match_count()) /
                       1'000'001.0;
  EXPECT_NEAR(ratio, 3003.0 / 1'000'001.0, 0.0003);
}

TEST(AolGeneratorTest, GrepMatchCountFormulaAgreesWithEnumeration) {
  AolGenerator generator({.record_count = 5000, .seed = 42});
  std::uint64_t enumerated = 0;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    enumerated += generator.is_grep_match(i);
  }
  EXPECT_EQ(enumerated, generator.grep_match_count());
}

TEST(AolGeneratorTest, NeedleAppearsExactlyInMatchingRecords) {
  AolGenerator generator({.record_count = 2000, .seed = 42});
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::string line = generator.record_at(i).to_line();
    EXPECT_EQ(contains(line, "test"), generator.is_grep_match(i))
        << "record " << i << ": " << line;
  }
}

TEST(AolGeneratorTest, LineParsingRoundTrips) {
  AolGenerator generator({.record_count = 20, .seed = 9});
  for (std::uint64_t i = 0; i < 20; ++i) {
    const AolRecord record = generator.record_at(i);
    const AolRecord parsed = AolRecord::from_line(record.to_line());
    EXPECT_EQ(parsed.user_id, record.user_id);
    EXPECT_EQ(parsed.query, record.query);
    EXPECT_EQ(parsed.query_time, record.query_time);
    EXPECT_EQ(parsed.item_rank, record.item_rank);
    EXPECT_EQ(parsed.click_url, record.click_url);
  }
}

TEST(AolGeneratorTest, AboutHalfTheRecordsHaveClicks) {
  AolGenerator generator({.record_count = 4000, .seed = 5});
  int clicks = 0;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const AolRecord record = generator.record_at(i);
    EXPECT_EQ(record.item_rank.empty(), record.click_url.empty());
    clicks += !record.item_rank.empty();
  }
  EXPECT_NEAR(clicks / 4000.0, 0.5, 0.05);
}

TEST(AolGeneratorTest, LineAtMatchesRecordAtAndReplacesTheBuffer) {
  AolGenerator generator({.record_count = 2000, .seed = 42});
  std::string line = "stale contents longer than any generated line ...";
  for (std::uint64_t i = 0; i < 2000; ++i) {
    generator.line_at(i, line);
    EXPECT_EQ(line, generator.record_at(i).to_line()) << "record " << i;
  }
}

// FNV-1a 64 over the first 100,000 lines, each followed by '\n'.
std::uint64_t dataset_digest(std::uint64_t seed) {
  AolGenerator generator({.record_count = 100'000, .seed = seed});
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](char c) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  };
  std::string line;
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    generator.line_at(i, line);
    for (const char c : line) mix(c);
    mix('\n');
  }
  return hash;
}

TEST(AolGeneratorTest, DatasetDigestIsPinned) {
  // The generated bytes are part of every benchmark's input; a change to
  // the draw order or the formatting must show up here, not as a silent
  // shift in the figures.
  EXPECT_EQ(dataset_digest(42), 0xb24fd3ac7c172167ULL);
  EXPECT_EQ(dataset_digest(1), 0x84e2de5c669e7eabULL);
}

TEST(AolGeneratorTest, RejectsBadConfig) {
  EXPECT_THROW(AolGenerator({.record_count = 0}), std::invalid_argument);
}

// --- data sender --------------------------------------------------------------

TEST(DataSenderTest, SendsAllRecordsInOrder) {
  // Two full 1,000-line chunks and a partial one.
  constexpr std::uint64_t kRecords = 2500;
  kafka::Broker broker;
  create_benchmark_topic(broker, "in").expect_ok();
  AolGenerator generator({.record_count = kRecords, .seed = 42});
  DataSender sender(broker, DataSenderConfig{.topic = "in"});
  auto report = sender.send_generated(generator);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().records_sent, kRecords);
  EXPECT_EQ(broker.end_offset({"in", 0}).value(),
            static_cast<std::int64_t>(kRecords));

  std::vector<kafka::StoredRecord> stored;
  broker.fetch({"in", 0}, 0, 2 * kRecords, stored).status().expect_ok();
  ASSERT_EQ(stored.size(), kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(stored[i].value, generator.record_at(i).to_line())
        << "record " << i;
  }
}

TEST(DataSenderTest, BrokerOutageMidIngestStopsTheGenerator) {
  auto& injector = runtime::FaultInjector::instance();
  kafka::Broker broker;
  create_benchmark_topic(broker, "in").expect_ok();
  // The third flush opens a 50 ms outage, which outlasts the producer's
  // five retries (at most ~7.5 ms of backoff). The generator is chunks
  // ahead by then and must be stopped and joined, not left blocked.
  injector.arm(11, {runtime::FaultRule{
                       .point = runtime::FaultPoint::kBrokerUnavailable,
                       .site = "in",
                       .after_hits = 2,
                       .times = 1,
                       .param_us = 50'000}});
  AolGenerator generator({.record_count = 10'000, .seed = 42});
  DataSender sender(broker, DataSenderConfig{.topic = "in"});
  const auto report = sender.send_generated(generator);
  injector.disarm();

  EXPECT_EQ(report.status().code(), StatusCode::kUnavailable);
  // A flush ships at 1,000 records or, on a slow run, earlier at its linger,
  // so only the stop itself is certain: the input ends short.
  EXPECT_LT(broker.end_offset({"in", 0}).value(), 10'000);
}

TEST(DataSenderTest, ArenaValuesOutliveTheSender) {
  // ~55-byte lines: 6,000 records fill several 64 KiB arena chunks.
  constexpr std::uint64_t kRecords = 6000;
  kafka::Broker broker;
  create_benchmark_topic(broker, "in").expect_ok();
  AolGenerator generator({.record_count = kRecords, .seed = 42});
  {
    DataSender sender(broker, DataSenderConfig{.topic = "in"});
    ASSERT_TRUE(sender.send_generated(generator).is_ok());
  }  // the sender and its arena are gone; the stored records hold the chunks

  std::vector<kafka::StoredRecord> stored;
  broker.fetch({"in", 0}, 0, kRecords, stored).status().expect_ok();
  ASSERT_EQ(stored.size(), kRecords);
  const auto lines = generator.all_lines();
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    ASSERT_EQ(stored[i].value, lines[i]) << "record " << i;
  }
  EXPECT_TRUE(stored[0].value.shares_storage_with(stored[1].value));
  EXPECT_FALSE(
      stored[0].value.shares_storage_with(stored[kRecords - 1].value));
}

TEST(DataSenderTest, BenchmarkTopicHasPaperSettings) {
  kafka::Broker broker;
  create_benchmark_topic(broker, "in").expect_ok();
  const auto metadata = broker.describe_topic("in");
  ASSERT_TRUE(metadata.is_ok());
  // §III-A2: one partition, replication factor one (ordering guarantee).
  EXPECT_EQ(metadata.value().config.partitions, 1);
  EXPECT_EQ(metadata.value().config.replication_factor, 1);
  EXPECT_EQ(metadata.value().config.timestamp_type,
            kafka::TimestampType::kLogAppendTime);
}

TEST(DataSenderTest, MissingTopicFails) {
  kafka::Broker broker;
  AolGenerator generator({.record_count = 1, .seed = 42});
  DataSender sender(broker, DataSenderConfig{.topic = "missing"});
  EXPECT_FALSE(sender.send_generated(generator).is_ok());
}

// --- query logic ----------------------------------------------------------------

TEST(StreamBenchTest, FourQueriesDefined) {
  EXPECT_EQ(all_queries().size(), 4u);
  EXPECT_EQ(query_info(QueryId::kIdentity).name, "Identity");
  EXPECT_EQ(query_info(QueryId::kSample).name, "Sample");
  EXPECT_EQ(query_info(QueryId::kProjection).name, "Projection");
  EXPECT_EQ(query_info(QueryId::kGrep).name, "Grep");
}

TEST(StreamBenchTest, IdentityIsIdentity) {
  EXPECT_EQ(identity_of("a\tb\tc"), "a\tb\tc");
}

TEST(StreamBenchTest, ProjectionTakesFirstColumn) {
  EXPECT_EQ(projection_of("user\tquery\ttime\t\t"), "user");
  EXPECT_EQ(projection_of("no-tabs-here"), "no-tabs-here");
  EXPECT_EQ(projection_of("\tleading"), "");
}

TEST(StreamBenchTest, GrepMatchesNeedle) {
  EXPECT_TRUE(grep_matches("1\tsearch test query\t2006"));
  EXPECT_TRUE(grep_matches("testify"));  // substring semantics
  EXPECT_FALSE(grep_matches("1\tsearch query\t2006"));
}

TEST(StreamBenchTest, SampleKeepsRoughlyFortyPercent) {
  SampleDecider decider(42);
  int kept = 0;
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; ++i) kept += decider.keep();
  EXPECT_NEAR(static_cast<double>(kept) / kTrials, kSampleFraction, 0.01);
}

TEST(StreamBenchTest, SampleDeciderDeterministic) {
  SampleDecider a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.keep(), b.keep());
}

TEST(StreamBenchTest, ThreadLocalSamplerStatisticallyCorrect) {
  int kept = 0;
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; ++i) kept += sample_keep_threadlocal(42);
  EXPECT_NEAR(static_cast<double>(kept) / kTrials, kSampleFraction, 0.01);
}

}  // namespace
}  // namespace dsps::workload
