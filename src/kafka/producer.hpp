// MiniKafka producer.
//
// The two producer behaviours that matter to the reproduction:
//  * acks        — every flush waits for the leader's ack (Kafka's acks=1),
//                  never for follower replicas;
//  * batching    — records accumulate until `batch_size` or flush(); a
//                  sink that sends record-by-record with batch_size=1 pays
//                  one broker round-trip per record, which is exactly how
//                  the Beam-on-Apex writer loses (§III-C3, Fig. 11).
//
// Every flush appends and then waits out the modelled ack round trip on the
// caller's thread, as the paper's synchronous Kafka writers do.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "kafka/broker.hpp"
#include "kafka/record.hpp"

namespace dsps::kafka {

/// How send(topic, record) picks a partition (Kafka's DefaultPartitioner /
/// RoundRobinPartitioner):
///   kKeyHash    — hash of the record key modulo partition count; keyless
///                 records fall back to round-robin (so a keyless workload
///                 still spreads over a multi-partition topic);
///   kRoundRobin — strict rotation regardless of keys.
enum class Partitioner { kKeyHash, kRoundRobin };

/// Send retries per flush (Kafka's `retries`): a flush that fails with a
/// retryable error (broker unavailability window) is re-attempted up to this
/// many extra times, backing off 200 us doubling to at most 10 ms, with
/// +-20% jitter.
inline constexpr int kProducerMaxRetries = 5;

struct ProducerConfig {
  Partitioner partitioner = Partitioner::kKeyHash;
  /// Records buffered per partition before an automatic flush.
  std::size_t batch_size = 500;
  /// Maximum microseconds a buffered record may wait before send() forces a
  /// flush (Kafka's linger.ms, scaled to our microsecond timestamps).
  /// Keeps low-volume outputs (e.g. the Grep query's ~0.3%) flowing out
  /// during execution instead of all at close(). send() tests the linger by
  /// the BatchDeadline stride rule, not on every record:
  ///  * a buffer of fewer than 16 records when its linger passes ships at
  ///    the first send() after the linger;
  ///  * a buffer that reached 16 records before its linger passed ships at
  ///    most 15 records after it (at 500 us, only at >= 32k records/s).
  /// Shipping at `batch_size`, flush() and close() do not depend on it.
  std::int64_t linger_us = 500;
};

class Producer {
 public:
  Producer(Broker& broker, ProducerConfig config);
  ~Producer();

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Buffers (or immediately appends, for batch_size==1) one record.
  Status send(const std::string& topic, int partition, ProducerRecord record);

  /// Partitioner-driven send: resolves the partition from the configured
  /// Partitioner and the topic's partition count (cached per topic).
  Status send(const std::string& topic, ProducerRecord record);

  /// Flushes all partition buffers.
  Status flush();

  /// Flush + stop accepting records. A retryable broker outage that outlived
  /// the producer's retries surfaces here as a Status (kUnavailable), never
  /// a crash.
  Status close();

  /// Flush attempts that failed retryably and were re-sent.
  std::uint64_t send_retries() const noexcept { return send_retries_; }

 private:
  struct Buffer {
    TopicPartition tp;
    std::vector<ProducerRecord> records;
    BatchDeadline linger;  // started at the first record
  };

  static constexpr std::size_t kNoBuffer = static_cast<std::size_t>(-1);

  Buffer& buffer_for(const std::string& topic, int partition);
  Status flush_buffer(Buffer& buffer);

  Broker& broker_;
  const ProducerConfig config_;
  std::vector<Buffer> buffers_;
  // topic -> partition -> index into buffers_; replaces a linear scan over
  // every buffer per send(). last_buffer_ short-circuits the common case of
  // consecutive sends to the same partition without hashing the topic.
  std::unordered_map<std::string, std::vector<std::size_t>> buffer_index_;
  // Partitioner state: per-topic partition count (topics never shrink) and
  // the round-robin cursor.
  std::unordered_map<std::string, int> partition_counts_;
  std::uint64_t round_robin_ = 0;
  std::size_t last_buffer_ = kNoBuffer;
  std::uint64_t send_retries_ = 0;
  bool closed_ = false;
};

}  // namespace dsps::kafka
