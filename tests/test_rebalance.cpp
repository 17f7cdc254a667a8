// Consumer-group coordinator tests: sticky assignment, cooperative
// rebalance on join/leave, commit-then-release hand-off (no record lost or
// duplicated across a rebalance), per-partition committed-offset isolation,
// and the producer partitioners feeding multi-partition topics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "kafka/broker.hpp"
#include "kafka/consumer.hpp"
#include "kafka/consumer_group.hpp"
#include "kafka/producer.hpp"

namespace dsps::kafka {
namespace {

TopicConfig partitions(int n) {
  return TopicConfig{.partitions = n,
                     .replication_factor = 1,
                     .timestamp_type = TimestampType::kLogAppendTime};
}

void produce_round_robin(Broker& broker, const std::string& topic, int count) {
  Producer producer(broker,
                    ProducerConfig{.partitioner = Partitioner::kRoundRobin,
                                   .batch_size = 100});
  for (int i = 0; i < count; ++i) {
    producer.send(topic, ProducerRecord{.value = std::to_string(i)})
        .expect_ok();
  }
  producer.close().expect_ok();
}

/// Record identity across consumers: (partition, offset).
using RecordId = std::pair<int, std::int64_t>;

/// One poll_batch: the identities of the records it delivered.
std::vector<RecordId> drain_ids(Consumer& consumer, std::int64_t timeout_ms) {
  FetchBatch batch;
  (void)consumer.poll_batch(timeout_ms, batch);
  std::vector<RecordId> ids;
  for (const auto& record : batch.records) {
    ids.emplace_back(batch.tp.partition, record.offset);
  }
  return ids;
}

// --- GroupCoordinator unit tests ---------------------------------------------

TEST(GroupCoordinatorTest, SingleMemberOwnsEverything) {
  GroupCoordinator coordinator;
  const auto member = coordinator.join("g", "t", 4);
  const auto view = coordinator.sync("g", "t", member);
  EXPECT_EQ(view.owned.size(), 4u);
  EXPECT_TRUE(view.revoked.empty());
}

TEST(GroupCoordinatorTest, StickyAssignmentMovesMinimally) {
  GroupCoordinator coordinator;
  const auto a = coordinator.join("g", "t", 4);
  const auto before = coordinator.sync("g", "t", a);
  ASSERT_EQ(before.owned.size(), 4u);

  const auto b = coordinator.join("g", "t", 4);
  // Cooperative protocol: the moving partitions stay with A (as revoked)
  // until A releases them; B starts with none of them.
  auto view_a = coordinator.sync("g", "t", a);
  auto view_b = coordinator.sync("g", "t", b);
  EXPECT_EQ(view_a.owned.size(), 2u);    // keeps exactly its target share
  EXPECT_EQ(view_a.revoked.size(), 2u);  // hands over the rest
  EXPECT_TRUE(view_b.owned.empty());     // nothing until release

  // A keeps a subset of what it had (stickiness: no partition it retains
  // was swapped for another).
  for (const int p : view_a.owned) {
    EXPECT_TRUE(std::count(before.owned.begin(), before.owned.end(), p) == 1);
  }

  for (const int p : view_a.revoked) {
    coordinator.release("g", "t", a, p);
  }
  view_b = coordinator.sync("g", "t", b);
  EXPECT_EQ(view_b.owned.size(), 2u);
  // Disjoint and complete.
  std::set<int> all(view_a.owned.begin(), view_a.owned.end());
  all.insert(view_b.owned.begin(), view_b.owned.end());
  EXPECT_EQ(all.size(), 4u);
}

TEST(GroupCoordinatorTest, GenerationBumpsOnMembershipChange) {
  GroupCoordinator coordinator;
  const auto a = coordinator.join("g", "t", 2);
  const auto g1 = coordinator.generation("g", "t");
  const auto b = coordinator.join("g", "t", 2);
  const auto g2 = coordinator.generation("g", "t");
  EXPECT_GT(g2, g1);
  coordinator.leave("g", "t", b);
  EXPECT_GT(coordinator.generation("g", "t"), g2);
  (void)a;
}

TEST(GroupCoordinatorTest, LeaveReassignsOwnedPartitions) {
  GroupCoordinator coordinator;
  const auto a = coordinator.join("g", "t", 4);
  const auto b = coordinator.join("g", "t", 4);
  // Settle the hand-off.
  for (const int p : coordinator.sync("g", "t", a).revoked) {
    coordinator.release("g", "t", a, p);
  }
  coordinator.leave("g", "t", b);
  // A departed owner transfers immediately (no release possible).
  const auto view = coordinator.sync("g", "t", a);
  EXPECT_EQ(view.owned.size(), 4u);
  EXPECT_TRUE(view.revoked.empty());
}

TEST(GroupCoordinatorTest, BalancedAcrossManyMembers) {
  GroupCoordinator coordinator;
  std::vector<std::string> members;
  for (int m = 0; m < 3; ++m) members.push_back(coordinator.join("g", "t", 8));
  // Settle all pending hand-offs (iterate until no member reports revoked).
  for (int round = 0; round < 8; ++round) {
    bool moved = false;
    for (const auto& member : members) {
      for (const int p : coordinator.sync("g", "t", member).revoked) {
        coordinator.release("g", "t", member, p);
        moved = true;
      }
    }
    if (!moved) break;
  }
  std::set<int> all;
  for (const auto& member : members) {
    const auto view = coordinator.sync("g", "t", member);
    EXPECT_TRUE(view.revoked.empty());
    EXPECT_GE(view.owned.size(), 2u);
    EXPECT_LE(view.owned.size(), 3u);
    all.insert(view.owned.begin(), view.owned.end());
  }
  EXPECT_EQ(all.size(), 8u);
}

// --- Consumer group-mode integration -----------------------------------------

TEST(ConsumerGroupTest, SubscribeGroupRequiresGroupId) {
  Broker broker;
  broker.create_topic("t", partitions(2)).expect_ok();
  Consumer consumer(broker);
  EXPECT_EQ(consumer.subscribe_group("t").code(),
            StatusCode::kInvalidArgument);
}

TEST(ConsumerGroupTest, SingleConsumerDrainsAllPartitions) {
  Broker broker;
  broker.create_topic("t", partitions(4)).expect_ok();
  produce_round_robin(broker, "t", 400);
  Consumer consumer(broker, ConsumerConfig{.group_id = "g"});
  consumer.subscribe_group("t").expect_ok();
  std::size_t consumed = 0;
  while (consumed < 400u) consumed += drain_ids(consumer, 10).size();
  EXPECT_EQ(consumed, 400u);
  // Every partition's position reached its end offset.
  ASSERT_EQ(consumer.positions().size(), 4u);
  for (const auto& [tp, position] : consumer.positions()) {
    EXPECT_EQ(position, broker.end_offset(tp).value()) << "p" << tp.partition;
  }
}

TEST(ConsumerGroupTest, RebalanceMidStreamLosesAndDuplicatesNothing) {
  // Differential check against a single-consumer drain: A starts alone,
  // B joins mid-stream, later leaves gracefully; the union of what A and B
  // consumed must be exactly every (partition, offset) pair once.
  Broker broker;
  broker.create_topic("t", partitions(8)).expect_ok();
  const int kRecords = 4000;
  produce_round_robin(broker, "t", kRecords);

  Consumer a(broker, ConsumerConfig{.group_id = "g"});
  a.subscribe_group("t").expect_ok();

  std::size_t consumed = 0;
  std::set<RecordId> seen;
  std::size_t duplicates = 0;
  auto account = [&](const std::vector<RecordId>& ids) {
    consumed += ids.size();
    for (const auto& id : ids) {
      if (!seen.insert(id).second) ++duplicates;
    }
  };

  // Phase 1: A alone, roughly a quarter of the stream.
  while (consumed < static_cast<std::size_t>(kRecords) / 4) {
    account(drain_ids(a, 10));
  }

  // Phase 2: B joins; both drain concurrently (interleaved polls — the
  // synchronous poll-process-poll pattern the hand-off relies on).
  {
    Consumer b(broker, ConsumerConfig{.group_id = "g"});
    b.subscribe_group("t").expect_ok();
    while (consumed < static_cast<std::size_t>(kRecords) / 2) {
      account(drain_ids(a, 0));
      account(drain_ids(b, 0));
    }
    // Phase 3: B leaves gracefully (commits, then hands partitions back).
    b.leave_group().expect_ok();
  }

  // Phase 4: A finishes the stream alone.
  while (consumed < static_cast<std::size_t>(kRecords)) {
    account(drain_ids(a, 10));
  }

  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kRecords));
  // Completeness per partition: offsets [0, end) all present.
  for (int p = 0; p < 8; ++p) {
    const auto end = broker.end_offset({"t", p});
    ASSERT_TRUE(end.is_ok());
    for (std::int64_t o = 0; o < end.value(); ++o) {
      EXPECT_TRUE(seen.count({p, o})) << "missing p" << p << "@" << o;
    }
  }
}

TEST(ConsumerGroupTest, CrashLeaveReplaysUncommittedTail) {
  // A destructs without leave_group() (crash-like): its partitions transfer
  // at the last *committed* offsets, so the survivor re-reads the
  // uncommitted tail — at-least-once, never losing records.
  Broker broker;
  broker.create_topic("t", partitions(2)).expect_ok();
  produce_round_robin(broker, "t", 200);

  Consumer survivor(broker, ConsumerConfig{.group_id = "g"});
  survivor.subscribe_group("t").expect_ok();
  std::set<RecordId> seen;
  {
    Consumer doomed(broker, ConsumerConfig{.group_id = "g"});
    doomed.subscribe_group("t").expect_ok();
    // Both sync in and consume a little; neither commits.
    for (int i = 0; i < 4; ++i) {
      for (const auto& id : drain_ids(survivor, 0)) seen.insert(id);
      // Dropped on the floor: the crash loses this consumer's progress.
      (void)drain_ids(doomed, 0);
    }
  }  // doomed "crashes"

  while (seen.size() < 200u) {
    for (const auto& id : drain_ids(survivor, 10)) seen.insert(id);
  }
  // No loss: every offset of both partitions was seen by *someone alive*.
  for (int p = 0; p < 2; ++p) {
    const auto end = broker.end_offset({"t", p});
    ASSERT_TRUE(end.is_ok());
    for (std::int64_t o = 0; o < end.value(); ++o) {
      EXPECT_TRUE(seen.count({p, o})) << "lost p" << p << "@" << o;
    }
  }
}

TEST(ConsumerGroupTest, CommittedOffsetsAreIsolatedPerPartition) {
  Broker broker;
  broker.create_topic("t", partitions(3)).expect_ok();
  broker.commit_offset("g", {"t", 0}, 7);
  broker.commit_offset("g", {"t", 2}, 11);
  EXPECT_EQ(broker.committed_offset("g", {"t", 0}), 7);
  EXPECT_EQ(broker.committed_offset("g", {"t", 1}), -1);
  EXPECT_EQ(broker.committed_offset("g", {"t", 2}), 11);
  // Groups are isolated from each other too.
  EXPECT_EQ(broker.committed_offset("other", {"t", 0}), -1);
}

// --- producer partitioners ----------------------------------------------------

TEST(PartitionerTest, RoundRobinSpreadsEvenly) {
  Broker broker;
  broker.create_topic("t", partitions(4)).expect_ok();
  Producer producer(broker,
                    ProducerConfig{.partitioner = Partitioner::kRoundRobin,
                                   .batch_size = 1});
  for (int i = 0; i < 40; ++i) {
    producer.send("t", ProducerRecord{.value = "v"}).expect_ok();
  }
  producer.close().expect_ok();
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(broker.end_offset({"t", p}).value(), 10);
  }
}

TEST(PartitionerTest, KeyHashIsStablePerKey) {
  Broker broker;
  broker.create_topic("t", partitions(4)).expect_ok();
  Producer producer(broker,
                    ProducerConfig{.partitioner = Partitioner::kKeyHash,
                                   .batch_size = 1});
  for (int i = 0; i < 30; ++i) {
    producer
        .send("t", ProducerRecord{.key = Payload("key-" + std::to_string(i % 3)),
                                  .value = std::to_string(i)})
        .expect_ok();
  }
  producer.close().expect_ok();
  // Each key's 10 records landed on a single partition: reading any
  // partition, all records of a given key are contiguous per that key.
  std::map<std::string, std::set<int>> key_partitions;
  for (int p = 0; p < 4; ++p) {
    std::vector<StoredRecord> records;
    broker.fetch({"t", p}, 0, 100, records).status().expect_ok();
    for (const auto& record : records) {
      key_partitions[record.key.str()].insert(p);
    }
  }
  EXPECT_EQ(key_partitions.size(), 3u);
  for (const auto& [key, where] : key_partitions) {
    EXPECT_EQ(where.size(), 1u) << key << " spread over partitions";
  }
}

TEST(PartitionerTest, KeylessKeyHashFallsBackToRoundRobin) {
  Broker broker;
  broker.create_topic("t", partitions(4)).expect_ok();
  Producer producer(broker, ProducerConfig{.batch_size = 1});
  for (int i = 0; i < 8; ++i) {
    producer.send("t", ProducerRecord{.value = "v"}).expect_ok();
  }
  producer.close().expect_ok();
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(broker.end_offset({"t", p}).value(), 2);
  }
}

}  // namespace
}  // namespace dsps::kafka
