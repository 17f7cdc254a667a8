// Allocation budget of the Beam element path. This binary replaces the
// global operator new with a counting one and measures heap allocations per
// input record on the Beam Identity setups. KafkaIO's records live inline in
// beam::Value and the Flink runner reuses solely owned element boxes, so
// Flink Beam allocates one box per record (at the source) and Spark Beam
// none. A regression to per-hop boxing shows up here as several
// allocations per record. Kept in its own binary: the counting operator
// new applies to the whole program.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "queries/query_factory.hpp"
#include "workload/aol_generator.hpp"
#include "workload/data_sender.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace dsps::queries {
namespace {

using workload::QueryId;

constexpr std::uint64_t kRecords = 20'000;

/// Heap allocations per input record of one Identity run at P1. A first
/// run on the same input warms up process-wide state (profiler sites,
/// metric names) so that only the measured run's own work is counted.
double allocations_per_record(Engine engine) {
  kafka::Broker broker;
  for (const char* topic : {"in", "warm-out", "out"}) {
    workload::create_benchmark_topic(broker, topic).expect_ok();
  }
  workload::AolGenerator generator({.record_count = kRecords, .seed = 42});
  workload::DataSender sender(broker,
                              workload::DataSenderConfig{.topic = "in"});
  sender.send_generated(generator).status().expect_ok();

  QueryContext ctx{.broker = &broker,
                   .input_topic = "in",
                   .output_topic = "warm-out",
                   .parallelism = 1};
  run_query(engine, Sdk::kBeam, QueryId::kIdentity, ctx).expect_ok();
  ctx.output_topic = "out";
  const std::uint64_t before = g_allocations.load();
  run_query(engine, Sdk::kBeam, QueryId::kIdentity, ctx).expect_ok();
  const std::uint64_t allocations = g_allocations.load() - before;

  std::vector<kafka::StoredRecord> out;
  broker.fetch({"out", 0}, 0, 2 * kRecords, out).status().expect_ok();
  EXPECT_EQ(out.size(), kRecords);
  return static_cast<double>(allocations) / static_cast<double>(kRecords);
}

TEST(AllocBudgetTest, FlinkBeamIdentityAllocatesOnlyTheSourceBox) {
  const double per_record = allocations_per_record(Engine::kFlink);
  RecordProperty("allocations_per_record", std::to_string(per_record));
  EXPECT_LE(per_record, 1.5);
}

TEST(AllocBudgetTest, SparkBeamIdentityAllocatesNothingPerRecord) {
  const double per_record = allocations_per_record(Engine::kSpark);
  RecordProperty("allocations_per_record", std::to_string(per_record));
  EXPECT_LE(per_record, 0.5);
}

}  // namespace
}  // namespace dsps::queries
