// MiniKafka broker: topic management and the append/fetch data plane.
//
// Replication is bookkept (a topic has a replication factor and per-replica
// high-water marks) but replicas live in the same process; an append with
// `wait_for_replication` (Kafka's acks=all) therefore also writes the
// simulated follower replicas. The producer waits only for the leader.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "kafka/partition_log.hpp"
#include "kafka/record.hpp"

namespace dsps::kafka {

struct TopicConfig {
  int partitions = 1;
  int replication_factor = 1;
  TimestampType timestamp_type = TimestampType::kLogAppendTime;
};

struct TopicMetadata {
  std::string name;
  TopicConfig config;
};

class Broker {
 public:
  Broker() = default;
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Simulated client<->broker network round-trip time, paid by producers
  /// once per *flush* (not per buffered record). The paper's brokers sat on
  /// separate VMs; a sink that produces record-by-record pays one RTT per
  /// record while a batching sink amortizes it — the mechanism behind the
  /// output-volume-proportional Beam penalty on Apex (§III-C3). Default 0.
  void set_rtt_us(std::int64_t rtt_us) noexcept { rtt_us_.store(rtt_us); }
  std::int64_t rtt_us() const noexcept { return rtt_us_.load(); }

  /// Marks the broker as shutting down and wakes every blocked fetcher.
  /// Stored records stay fetchable (drain semantics); new appends are
  /// rejected with Unavailable. Consumers observe FetchState::kClosed from
  /// poll_batch instead of sleeping out their fetch timeout.
  void begin_shutdown();
  bool shutting_down() const noexcept {
    return shutting_down_.load(std::memory_order_acquire);
  }

  /// Seals one topic: closes its partition logs (the in-process analogue of
  /// a Kafka end-of-stream), so consumers drain what is stored and then
  /// observe FetchState::kClosed. Unlike begin_shutdown(), appends to
  /// *other* topics keep working — this is how an open-loop run terminates:
  /// the generator seals the input topic while the engines keep writing
  /// their output topics. Appends to the sealed topic itself also still
  /// succeed (drain semantics, same contract as PartitionLog::close).
  Status seal_topic(const std::string& name);

  /// True when every partition log of the topic is closed (sealed or the
  /// broker began shutdown).
  bool topic_sealed(const std::string& name) const;
  bool partition_sealed(const TopicPartition& tp) const;

  /// Applies size retention to every partition (leader + followers) of
  /// the topic; a zero config clears it.
  Status set_retention(const std::string& name, RetentionConfig config);

  /// Payload bytes retained across the topic's leader partitions.
  std::int64_t retained_bytes(const std::string& name) const;

  Status create_topic(const std::string& name, const TopicConfig& config);
  Status delete_topic(const std::string& name);
  bool topic_exists(const std::string& name) const;
  Result<TopicMetadata> describe_topic(const std::string& name) const;
  std::vector<std::string> list_topics() const;

  /// Appends to the leader replica; when `wait_for_replication` (acks=all),
  /// also appends to every follower replica before returning.
  Result<std::int64_t> append(const TopicPartition& tp,
                              const ProducerRecord& record,
                              bool wait_for_replication);

  Result<std::int64_t> append_batch(const TopicPartition& tp,
                                    const std::vector<ProducerRecord>& records,
                                    bool wait_for_replication);

  /// Non-blocking fetch from the leader replica.
  Result<std::size_t> fetch(const TopicPartition& tp, std::int64_t offset,
                            std::size_t max_records,
                            std::vector<StoredRecord>& out) const;

  /// Blocking fetch (up to `timeout_ms`) from the leader replica.
  Result<std::size_t> fetch_blocking(const TopicPartition& tp,
                                     std::int64_t offset,
                                     std::size_t max_records,
                                     std::int64_t timeout_ms,
                                     std::vector<StoredRecord>& out) const;

  Result<std::int64_t> end_offset(const TopicPartition& tp) const;
  Result<PartitionInfo> partition_info(const TopicPartition& tp) const;
  Result<int> partition_count(const std::string& topic) const;

  /// Consumer-group offset commit store (the __consumer_offsets analogue).
  void commit_offset(const std::string& group, const TopicPartition& tp,
                     std::int64_t offset);
  /// Returns -1 when the group has no committed offset for the partition.
  std::int64_t committed_offset(const std::string& group,
                                const TopicPartition& tp) const;

  /// The segments every log of this broker draws from and returns to.
  const SegmentPool& segment_pool() const noexcept { return segment_pool_; }

 private:
  struct Topic {
    TopicConfig config;
    // replicas[r][p] — replica r of partition p; replica 0 is the leader.
    std::vector<std::vector<std::unique_ptr<PartitionLog>>> replicas;
  };

  const Topic* find_topic(const std::string& name) const;
  Result<const Topic*> topic_for(const TopicPartition& tp) const;

  std::atomic<std::int64_t> rtt_us_{0};
  std::atomic<bool> shutting_down_{false};
  // Guards the topic map, not the logs. Topic creation is rare and lookups
  // dominate (every append/fetch resolves its topic), so readers share.
  mutable std::shared_mutex mutex_;
  // Declared before topics_ so it outlives every log that returns to it.
  SegmentPool segment_pool_;
  std::map<std::string, Topic> topics_;
  std::map<std::string, std::map<std::string, std::map<int, std::int64_t>>>
      group_offsets_;  // group -> topic -> partition -> offset
  mutable std::mutex offsets_mutex_;
};

}  // namespace dsps::kafka
