// MiniKafka consumer: the one read contract every engine reader shares —
// partition slice, start offset and end of input — with optional
// group-id offset commits (used by the engines' replay-on-restart
// recovery hooks).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "kafka/broker.hpp"
#include "kafka/record.hpp"

namespace dsps::kafka {

/// One contiguous fetch from a single partition, as returned by
/// Consumer::poll_batch. Records keep the broker's StoredRecord layout, so
/// a batch costs one bulk copy out of the partition log and no per-record
/// re-wrapping; `records[i].offset == base_offset + i`.
struct FetchBatch {
  TopicPartition tp;
  std::int64_t base_offset = 0;
  std::vector<StoredRecord> records;

  bool empty() const noexcept { return records.empty(); }
  std::size_t size() const noexcept { return records.size(); }
};

/// The slice of a topic one reader owns: shard `index` of `count` reads the
/// partitions p with p % count == index. With more shards than partitions
/// the surplus shards own nothing (Kafka semantics).
struct Shard {
  int index = 0;
  int count = 1;
};

struct ConsumerConfig {
  /// Optional consumer group for offset commits; empty = no group.
  std::string group_id;
  std::size_t max_poll_records = 1000;
};

/// Outcome of a poll_batch call. kClosed means no further data will ever
/// arrive — the broker is mid-shutdown, or the subscribed slice reached its
/// end of input (see Consumer::subscribe): the batch in `out` (possibly
/// partial, possibly empty) is the final one and must still be processed.
/// kOutOfRange means the consumer had fallen behind a retention-trimmed log
/// head and was auto-reset to the log start (the auto.offset.reset=earliest
/// behaviour); the batch holds valid records from the reset position and
/// the gap is counted in `kafka.consumer.out_of_range_resets`. Marked [[nodiscard]] so every call
/// site decides what shutdown means for it.
enum class [[nodiscard]] FetchState {
  kOk,
  kClosed,
  kOutOfRange,
};

class Consumer {
 public:
  Consumer(Broker& broker, ConsumerConfig config = {});

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Assigns this reader's slice of `topic` (see Shard). Each partition
  /// starts at the consumer group's committed offset, or at 0 without a
  /// group or commit. The slice's end of input — the one rule every engine
  /// reader stops on — is:
  ///  - bounded: each partition's end offset as it stands now; records
  ///    appended after subscribe() are never read;
  ///  - open loop: the topic is sealed (Broker::seal_topic) and every
  ///    partition of the slice is drained.
  /// An empty slice follows the same rule: it ends at once when bounded and
  /// at the seal in open loop.
  Status subscribe(const std::string& topic, bool bounded, Shard shard = {});

  /// Round-robins over the assignments and returns the first non-empty
  /// contiguous fetch (up to `max_poll_records`) from a single partition,
  /// advancing that partition's position past the batch; callers move the
  /// values straight out of the batch. Returns kClosed together with the
  /// batch that reaches the slice's end of input, and kClosed with an empty
  /// batch — at once, without blocking — once the slice is finished (or
  /// empty and finished) or the broker is mid-shutdown. Otherwise blocks up
  /// to `timeout_ms` when nothing is immediately available.
  FetchState poll_batch(std::int64_t timeout_ms, FetchBatch& out);

  /// Commits current positions to the consumer group (no-op without group).
  void commit();

  /// Current fetch position per assigned partition.
  std::vector<std::pair<TopicPartition, std::int64_t>> positions() const;

 private:
  /// Assignment::end of a partition read until its topic is sealed.
  static constexpr std::int64_t kUntilSealed = -1;

  struct Assignment {
    TopicPartition tp;
    std::int64_t position = 0;
    /// Bounded reads: the end offset recorded at subscribe().
    std::int64_t end = kUntilSealed;
  };

  /// Records the next fetch from `assignment` may return: a bounded read
  /// never fetches past its recorded end (0 once it got there).
  std::size_t fetch_limit(const Assignment& assignment) const;

  /// True once the slice reached its end of input (see subscribe()).
  bool finished() const;

  /// kClosed when no more data can arrive (shutdown or finished()).
  FetchState drained_state() const;

  Broker& broker_;
  ConsumerConfig config_;
  std::vector<Assignment> assignments_;
  // The subscribed topic and its rule, kept since an empty slice has no
  // assignment to carry them.
  std::string topic_;
  bool bounded_ = false;
  std::size_t next_partition_ = 0;  // round-robin over assignments
};

}  // namespace dsps::kafka
