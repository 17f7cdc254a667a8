// Unit and property tests for the dsps_common substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/noise.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace dsps {
namespace {

// --- Status / Result ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::not_found("missing thing");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.to_string(), "NotFound: missing thing");
}

TEST(StatusTest, ExpectOkThrowsOnError) {
  EXPECT_NO_THROW(Status::ok().expect_ok());
  EXPECT_THROW(Status::internal("boom").expect_ok(), std::runtime_error);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kUnsupported,
        StatusCode::kInternal, StatusCode::kClosed}) {
    EXPECT_FALSE(status_code_name(code).empty());
    EXPECT_NE(status_code_name(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().is_ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::invalid_argument("bad"));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_THROW(result.value(), std::runtime_error);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("hello"));
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "hello");
}

// --- BoundedQueue -------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.pop(), i);
}

TEST(BoundedQueueTest, TryPushDistinguishesFullFromClosed) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), QueuePushResult::kOk);
  EXPECT_EQ(queue.try_push(2), QueuePushResult::kOk);
  EXPECT_EQ(queue.try_push(3), QueuePushResult::kFull);
  EXPECT_EQ(queue.size(), 2u);
  queue.close();
  EXPECT_EQ(queue.try_push(4), QueuePushResult::kClosed);
}

TEST(BoundedQueueTest, TryPopDistinguishesEmptyFromDrained) {
  BoundedQueue<int> queue(2);
  int out = -1;
  EXPECT_EQ(queue.try_pop(out), QueuePopResult::kEmpty);
  queue.push(7);
  queue.close();
  EXPECT_FALSE(queue.is_drained());
  EXPECT_EQ(queue.try_pop(out), QueuePopResult::kOk);
  EXPECT_EQ(out, 7);
  EXPECT_EQ(queue.try_pop(out), QueuePopResult::kDrained);
  EXPECT_TRUE(queue.is_drained());
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<int> queue(8);
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_FALSE(queue.push(3));
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueueTest, CloseWakesBlockedPop) {
  BoundedQueue<int> queue(2);
  std::thread popper([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  popper.join();
}

TEST(BoundedQueueTest, BlockedPushUnblocksOnPop) {
  BoundedQueue<int> queue(1);
  queue.push(0);
  std::atomic<bool> pushed{false};
  std::thread pusher([&] {
    queue.push(1);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.pop(), 0);
  pusher.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueueTest, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

// Property: N producers x M items arrive exactly once.
TEST(BoundedQueueTest, ConcurrentProducersConsumersDeliverExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 500;
  BoundedQueue<int> queue(16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kItemsEach; ++i) queue.push(p * kItemsEach + i);
    });
  }
  std::set<int> seen;
  std::mutex seen_mutex;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.pop()) {
        std::lock_guard lock(seen_mutex);
        EXPECT_TRUE(seen.insert(*item).second);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  queue.close();
  for (auto& consumer : consumers) consumer.join();
  EXPECT_EQ(seen.size(), kProducers * kItemsEach);
}

TEST(BoundedQueueTest, BatchOpsPreserveFifoOrder) {
  BoundedQueue<int> queue(64);
  std::vector<int> first{0, 1, 2, 3, 4};
  std::vector<int> second{5, 6, 7};
  EXPECT_EQ(queue.push_batch(std::move(first)), 5u);
  EXPECT_EQ(queue.push_batch(std::move(second)), 3u);
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 6), 6u);
  EXPECT_EQ(queue.pop_batch(out, 100), 2u);
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(BoundedQueueTest, PushBatchLargerThanCapacityStreamsThrough) {
  BoundedQueue<int> queue(4);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[static_cast<std::size_t>(i)] = i;
  std::thread pusher([&] {
    EXPECT_EQ(queue.push_batch(std::move(items)), 100u);
    queue.close();
  });
  std::vector<int> out;
  while (queue.pop_batch(out, 16) > 0) {
  }
  pusher.join();
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(BoundedQueueTest, CloseMidBatchDrainsAcceptedPrefix) {
  BoundedQueue<int> queue(2);
  std::vector<int> items{1, 2, 3, 4};
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
  });
  // Only the first capacity-sized chunk fits before close() lands.
  const std::size_t accepted = queue.push_batch(std::move(items));
  closer.join();
  EXPECT_EQ(accepted, 2u);
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 10), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.pop_batch(out, 10), 0u);  // drained
}

TEST(BoundedQueueTest, PopBatchReturnsZeroWhenClosedEmpty) {
  BoundedQueue<int> queue(4);
  queue.close();
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 8), 0u);
  EXPECT_TRUE(out.empty());
}

// --- SpscRingQueue ------------------------------------------------------------

TEST(SpscRingQueueTest, RoundsCapacityToPowerOfTwo) {
  SpscRingQueue<int> queue(100);
  EXPECT_EQ(queue.capacity(), 128u);
  EXPECT_THROW(SpscRingQueue<int>(0), std::invalid_argument);
}

TEST(SpscRingQueueTest, FifoOrderAndWrapAround) {
  SpscRingQueue<int> queue(4);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.push(round * 3 + i));
    for (int i = 0; i < 3; ++i) EXPECT_EQ(queue.pop(), round * 3 + i);
  }
}

TEST(SpscRingQueueTest, TryOpsDistinguishStates) {
  SpscRingQueue<int> queue(2);
  int out = -1;
  EXPECT_EQ(queue.try_pop(out), QueuePopResult::kEmpty);
  EXPECT_EQ(queue.try_push(1), QueuePushResult::kOk);
  EXPECT_EQ(queue.try_push(2), QueuePushResult::kOk);
  EXPECT_EQ(queue.try_push(3), QueuePushResult::kFull);
  queue.close();
  EXPECT_EQ(queue.try_push(4), QueuePushResult::kClosed);
  EXPECT_EQ(queue.try_pop(out), QueuePopResult::kOk);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(queue.try_pop(out), QueuePopResult::kOk);
  EXPECT_EQ(queue.try_pop(out), QueuePopResult::kDrained);
  EXPECT_TRUE(queue.is_drained());
}

TEST(SpscRingQueueTest, CloseDrainsThenEnds) {
  SpscRingQueue<int> queue(8);
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_FALSE(queue.push(3));
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

// Property: everything one thread pushes arrives exactly once, in order, at
// the other thread, across single and batch operations mixed.
TEST(SpscRingQueueTest, TwoThreadStressPreservesOrder) {
  constexpr int kItems = 200000;
  SpscRingQueue<int> queue(256);
  std::thread producer([&] {
    int next = 0;
    while (next < kItems) {
      if (next % 3 == 0) {
        std::vector<int> batch;
        const int n = std::min(64, kItems - next);
        batch.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) batch.push_back(next + i);
        ASSERT_EQ(queue.push_batch(std::move(batch)),
                  static_cast<std::size_t>(n));
        next += n;
      } else {
        ASSERT_TRUE(queue.push(next));
        ++next;
      }
    }
    queue.close();
  });
  int expected = 0;
  std::vector<int> out;
  for (;;) {
    out.clear();
    const std::size_t n = queue.pop_batch(out, 48);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedWork) {
  ThreadPool pool(4);
  auto future = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("bad"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    (void)pool.submit([&done] { done.fetch_add(1); });
  }
  pool.shutdown();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

// --- RNG ------------------------------------------------------------------------

TEST(RngTest, SplitMixIsDeterministic) {
  SplitMix64 a(1), b(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, XoshiroIsDeterministic) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextDoubleIsRoughlyUniform) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

// --- stats -----------------------------------------------------------------------

TEST(StatsTest, MeanOfEmptyIsZero) { EXPECT_EQ(mean({}), 0.0); }

TEST(StatsTest, MeanOfValues) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(StatsTest, StddevOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(stddev({5.0, 5.0, 5.0}), 0.0);
}

TEST(StatsTest, SampleStddevMatchesHandComputation) {
  // Values 2, 4, 4, 4, 5, 5, 7, 9: sample stddev = sqrt(32/7).
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, RelativeStddevIsScaleInvariant) {
  const std::vector<double> base = {1.0, 2.0, 3.0};
  std::vector<double> scaled = {10.0, 20.0, 30.0};
  EXPECT_NEAR(relative_stddev(base), relative_stddev(scaled), 1e-12);
}

TEST(StatsTest, PercentileBounds) {
  std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 3.0);
}

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25), 2.5);
}

TEST(StatsTest, PercentileRejectsBadArgs) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(StatsTest, OutlierDetectionFindsTheSpike) {
  // The paper's Table III P1 runs: it names 21.56s, 12.69s and 6.25s as
  // the outliers among ~3.5s runs.
  const std::vector<double> runs = {6.25, 21.56, 3.42, 3.31, 3.73,
                                    12.69, 3.90, 3.96, 3.42, 3.01};
  EXPECT_EQ(outlier_indices(runs, 2.0), (std::vector<std::size_t>{0, 1, 5}));
}

TEST(StatsTest, TwoEqualSpikesDoNotMaskEachOther) {
  // Two injected pauses in ten runs inflate the standard deviation enough
  // that a mean ± 2 sigma test flags neither; the median/MAD test flags
  // both.
  const std::vector<double> runs = {3.0, 3.1, 2.9, 3.0, 20.0,
                                    3.05, 2.95, 3.0, 20.0, 3.1};
  EXPECT_EQ(outlier_indices(runs, 2.0), (std::vector<std::size_t>{4, 8}));
}

TEST(StatsTest, NoOutliersInHomogeneousRuns) {
  const std::vector<double> runs = {4.15, 3.77, 2.71, 5.29, 3.00,
                                    3.93, 2.90, 3.66, 3.57, 4.45};
  EXPECT_TRUE(outlier_indices(runs, 2.5).empty());
}

TEST(StatsTest, MaxOf) {
  EXPECT_DOUBLE_EQ(max_of({3.0, 1.0, 2.0}), 3.0);
  EXPECT_THROW(max_of({}), std::invalid_argument);
}

// --- strings ----------------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a\t\tb\t", '\t');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  const auto parts = split("abc", '\t');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, SplitViewsMatchesSplit) {
  const std::string input = "x,y,,z";
  const auto owned = split(input, ',');
  const auto views = split_views(input, ',');
  ASSERT_EQ(owned.size(), views.size());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(owned[i], views[i]);
  }
}

TEST(StringsTest, JoinInvertsSplit) {
  const std::string line = "1\tsearch query\t2006-03-01\t\t";
  EXPECT_EQ(join(split(line, '\t'), '\t'), line);
}

TEST(StringsTest, Contains) {
  EXPECT_TRUE(contains("a test query", "test"));
  EXPECT_FALSE(contains("a query", "test"));
  EXPECT_TRUE(contains("test", "test"));
  EXPECT_FALSE(contains("", "test"));
  EXPECT_TRUE(contains("anything", ""));
}

TEST(StringsTest, FindSubstringEdgeCases) {
  EXPECT_EQ(find_substring("", ""), 0u);
  EXPECT_EQ(find_substring("abc", ""), 0u);
  EXPECT_EQ(find_substring("", "a"), std::string_view::npos);
  EXPECT_EQ(find_substring("ab", "abc"), std::string_view::npos);
  EXPECT_EQ(find_substring("abc", "abc"), 0u);
  EXPECT_EQ(find_substring("xabc", "abc"), 1u);
  EXPECT_EQ(find_substring("abx", "x"), 2u);
}

TEST(StringsTest, FindSubstringMatchAtEveryOffsetOfLongHaystacks) {
  // Sweep the match across vector-block boundaries: the SSE2 path handles
  // 16 positions at a time, the memchr path handles the tail.
  const std::string needle = "needle!";
  for (std::size_t hay_len : {20u, 31u, 32u, 33u, 64u, 100u}) {
    for (std::size_t at = 0; at + needle.size() <= hay_len; ++at) {
      std::string hay(hay_len, 'n');  // 'n' stresses the first-byte filter
      hay.replace(at, needle.size(), needle);
      EXPECT_EQ(find_substring(hay, needle), at)
          << "len=" << hay_len << " at=" << at;
      EXPECT_EQ(find_substring(hay, needle), hay.find(needle));
    }
  }
}

TEST(StringsTest, FindSubstringAgreesWithStdFindOnRandomInputs) {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::string hay(next() % 120, '\0');
    for (auto& c : hay) c = static_cast<char>('a' + next() % 4);
    std::string needle(1 + next() % 6, '\0');
    for (auto& c : needle) c = static_cast<char>('a' + next() % 4);
    EXPECT_EQ(find_substring(hay, needle), hay.find(needle))
        << "hay=" << hay << " needle=" << needle;
  }
}

TEST(StringsTest, FindSubstringHandlesEmbeddedNulsAndRepeatedPrefixes) {
  const std::string hay("aa\0aab\0aabaaab", 14);
  EXPECT_EQ(find_substring(hay, std::string("b\0aab", 5)), 5u);
  EXPECT_EQ(find_substring("aaaaaaaaaaaaaaaaaaaaaab", "aab"), 20u);
  EXPECT_EQ(find_substring("ababababababababababababc", "ababc"), 20u);
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

// --- bytes ------------------------------------------------------------------------

TEST(BytesTest, WriterReaderRoundTrip) {
  Bytes buffer;
  BinaryWriter writer(buffer);
  writer.write_u8(7);
  writer.write_u32(123456);
  writer.write_u64(0xDEADBEEFCAFEBABEULL);
  writer.write_i64(-42);
  writer.write_string("hello world");
  writer.write_bytes({1, 2, 3});

  BinaryReader reader(buffer);
  EXPECT_EQ(reader.read_u8(), 7);
  EXPECT_EQ(reader.read_u32(), 123456u);
  EXPECT_EQ(reader.read_u64(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_EQ(reader.read_string(), "hello world");
  EXPECT_EQ(reader.read_bytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_FALSE(reader.failed());
}

TEST(BytesTest, ReaderFailsGracefullyOnTruncation) {
  Bytes buffer;
  BinaryWriter writer(buffer);
  writer.write_string("abcdef");
  buffer.resize(buffer.size() - 2);  // truncate
  BinaryReader reader(buffer);
  (void)reader.read_string();
  EXPECT_TRUE(reader.failed());
}

TEST(BytesTest, EmptyStringRoundTrip) {
  Bytes buffer;
  BinaryWriter writer(buffer);
  writer.write_string("");
  BinaryReader reader(buffer);
  EXPECT_EQ(reader.read_string(), "");
  EXPECT_FALSE(reader.failed());
}

TEST(BytesTest, FnvHashIsStableAndSpreads) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  // Distribution sanity: 1000 keys over 16 buckets, no bucket > 3x fair.
  std::vector<int> buckets(16, 0);
  for (int i = 0; i < 1000; ++i) {
    ++buckets[fnv1a("key-" + std::to_string(i)) % 16];
  }
  for (const int count : buckets) EXPECT_LT(count, 3 * 1000 / 16);
}

TEST(BytesTest, StringConversions) {
  EXPECT_EQ(to_string(to_bytes("round trip")), "round trip");
}

// --- env ---------------------------------------------------------------------------

TEST(EnvTest, FallbacksWhenUnset) {
  ::unsetenv("STREAMSHIM_TEST_VAR");
  EXPECT_EQ(env_string("STREAMSHIM_TEST_VAR", "fallback"), "fallback");
  EXPECT_EQ(env_i64("STREAMSHIM_TEST_VAR", 17), 17);
  EXPECT_FALSE(env_flag("STREAMSHIM_TEST_VAR"));
}

TEST(EnvTest, ParsesValues) {
  ::setenv("STREAMSHIM_TEST_VAR", "123", 1);
  EXPECT_EQ(env_i64("STREAMSHIM_TEST_VAR", 0), 123);
  ::setenv("STREAMSHIM_TEST_VAR", "true", 1);
  EXPECT_TRUE(env_flag("STREAMSHIM_TEST_VAR"));
  ::setenv("STREAMSHIM_TEST_VAR", "not-a-number", 1);
  EXPECT_EQ(env_i64("STREAMSHIM_TEST_VAR", 9), 9);
  ::unsetenv("STREAMSHIM_TEST_VAR");
}

TEST(EnvTest, BenchScaleDefaults) {
  ::unsetenv("STREAMSHIM_RECORDS");
  ::unsetenv("STREAMSHIM_RUNS");
  ::unsetenv("STREAMSHIM_SEED");
  ::unsetenv("STREAMSHIM_FULL");
  const BenchScale scale = resolve_bench_scale();
  EXPECT_EQ(scale.records, 20000u);
  EXPECT_EQ(scale.runs, 3);
  EXPECT_EQ(scale.seed, 42u);
  EXPECT_FALSE(scale.full);
}

TEST(EnvTest, FullScaleMatchesPaper) {
  ::setenv("STREAMSHIM_FULL", "1", 1);
  ::unsetenv("STREAMSHIM_RECORDS");
  ::unsetenv("STREAMSHIM_RUNS");
  const BenchScale scale = resolve_bench_scale();
  EXPECT_EQ(scale.records, 1000001u);  // the paper's AOL record count
  EXPECT_EQ(scale.runs, 10);           // the paper's run count
  ::unsetenv("STREAMSHIM_FULL");
}

TEST(EnvTest, ExplicitOverridesBeatFull) {
  ::setenv("STREAMSHIM_FULL", "1", 1);
  ::setenv("STREAMSHIM_RECORDS", "555", 1);
  EXPECT_EQ(resolve_bench_scale().records, 555u);
  ::unsetenv("STREAMSHIM_FULL");
  ::unsetenv("STREAMSHIM_RECORDS");
}

// --- noise -------------------------------------------------------------------------

TEST(NoiseTest, DisabledInjectorNeverPauses) {
  NoiseInjector injector(NoiseConfig{});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(injector.draw_pause_ms(), 0);
}

TEST(NoiseTest, DeterministicForSeed) {
  const NoiseConfig config{.enabled = true,
                           .pause_probability = 0.5,
                           .min_pause_ms = 1,
                           .max_pause_ms = 20,
                           .seed = 9};
  NoiseInjector a(config), b(config);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.draw_pause_ms(), b.draw_pause_ms());
}

TEST(NoiseTest, PausesWithinBoundsAndRoughFrequency) {
  const NoiseConfig config{.enabled = true,
                           .pause_probability = 0.3,
                           .min_pause_ms = 5,
                           .max_pause_ms = 10,
                           .seed = 4};
  NoiseInjector injector(config);
  int paused = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto pause = injector.draw_pause_ms();
    if (pause > 0) {
      ++paused;
      EXPECT_GE(pause, 5);
      EXPECT_LE(pause, 10);
    }
  }
  EXPECT_NEAR(static_cast<double>(paused) / 2000.0, 0.3, 0.05);
}

// --- clock -------------------------------------------------------------------------

TEST(ClockTest, TimestampsAreMonotonicEnough) {
  const Timestamp a = wall_clock_now();
  const Timestamp b = wall_clock_now();
  EXPECT_LE(a, b);
}

TEST(ClockTest, StopwatchMeasuresSleep) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(watch.elapsed_ms(), 18.0);
  EXPECT_LT(watch.elapsed_ms(), 500.0);
}

TEST(ClockTest, TimestampDeltaSeconds) {
  EXPECT_DOUBLE_EQ(timestamp_delta_seconds(1'000'000), 1.0);
  EXPECT_DOUBLE_EQ(timestamp_delta_seconds(250'000), 0.25);
}

TEST(ClockTest, BatchDeadlineIsDueOnEveryRecordThenOncePerStride) {
  constexpr std::size_t stride = BatchDeadline::kStride;
  ASSERT_EQ(stride, 16u);
  for (std::size_t records = 1; records <= stride; ++records) {
    EXPECT_TRUE(BatchDeadline::due(records)) << records;
  }
  for (std::size_t records = stride + 1; records <= 8 * stride; ++records) {
    EXPECT_EQ(BatchDeadline::due(records), records % stride == 0) << records;
  }
}

TEST(ClockTest, BatchDeadlineExpiresOnFirstDueRecordAfterBudget) {
  BatchDeadline deadline;
  deadline.start();
  EXPECT_FALSE(deadline.expired(1, 1'000'000));
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // Small batches are checked on every record.
  EXPECT_TRUE(deadline.expired(5, 1000));
  EXPECT_TRUE(deadline.expired(16, 1000));
  // Past the stride only multiples of it read the clock.
  for (std::size_t records = 17; records < 32; ++records) {
    EXPECT_FALSE(deadline.expired(records, 1000)) << records;
  }
  EXPECT_TRUE(deadline.expired(32, 1000));
  // A restart opens a fresh budget.
  deadline.start();
  EXPECT_FALSE(deadline.expired(32, 1'000'000));
}

}  // namespace
}  // namespace dsps
