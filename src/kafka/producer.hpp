// MiniKafka producer.
//
// The two producer behaviours that matter to the reproduction:
//  * acks        — 0 (fire and forget, buffered), 1 (leader sync),
//                  all (leader + follower replicas sync);
//  * batching    — records accumulate until `batch_size` or flush(); a
//                  sink that sends record-by-record with batch_size=1 pays
//                  one broker round-trip per record, which is exactly how
//                  the Beam-on-Apex writer loses (§III-C3, Fig. 11).
//
// Asynchronous pipelined mode (opt-in, `ProducerConfig::async`): send()
// only write-combines into per-partition buffers; a background sender
// thread ships full buffers to the broker as bulk requests and models the
// ack round-trip off the caller's thread, with at most `max_in_flight`
// requests outstanding (Kafka's max.in.flight.requests.per.connection).
// Per-partition ordering is preserved: a single sender dispatches batches
// in handoff order and retries a failed request in place before moving on.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "kafka/broker.hpp"
#include "kafka/record.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"

namespace dsps::kafka {

enum class Acks { kNone = 0, kLeader = 1, kAll = -1 };

/// How send(topic, record) picks a partition (Kafka's DefaultPartitioner /
/// RoundRobinPartitioner):
///   kKeyHash    — hash of the record key modulo partition count; keyless
///                 records fall back to round-robin (so a keyless workload
///                 still spreads over a multi-partition topic);
///   kRoundRobin — strict rotation regardless of keys.
enum class Partitioner { kKeyHash, kRoundRobin };

struct ProducerConfig {
  Acks acks = Acks::kLeader;
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
  /// Send retries per flush (Kafka's `retries`): a flush that fails with a
  /// retryable error (broker unavailability window) is re-attempted up to
  /// this many extra times with capped exponential backoff + jitter.
  int max_retries = 5;
  runtime::BackoffPolicy retry_backoff{
      .initial_us = 200, .multiplier = 2.0, .max_us = 10'000};
  /// Asynchronous pipelined sends: full buffers are handed to a background
  /// sender thread instead of being appended (and paying the ack RTT) on
  /// the calling thread. Errors become sticky and surface at the next
  /// flush()/close(); per-partition ordering still holds.
  bool async = false;
  /// Async mode: maximum broker requests dispatched but not yet acked
  /// (Kafka's max.in.flight.requests.per.connection). The sender stalls on
  /// the oldest outstanding ack once the window is full.
  std::size_t max_in_flight = 5;
  /// Async mode: bound on batches queued to the sender. send() blocks once
  /// the queue is full — backpressure instead of unbounded memory.
  std::size_t max_pending_batches = 64;
};

/// Completion handle for one asynchronously produced batch — the delivery
/// report / Future<RecordMetadata> analogue. Copyable; wait() blocks until
/// the broker acked (or terminally failed) the batch containing the record.
/// A default-constructed SendAck is already complete with Status::ok().
class SendAck {
 public:
  SendAck() = default;

  /// Blocks until the batch completes; returns its final status.
  Status wait() const;
  bool done() const;

 private:
  friend class Producer;
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::ok();
  };
  explicit SendAck(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class Producer {
 public:
  Producer(Broker& broker, ProducerConfig config);
  ~Producer();

  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Buffers (or immediately appends, for batch_size==1) one record.
  Status send(const std::string& topic, int partition, ProducerRecord record);

  /// Convenience: key/value to partition chosen by key hash (or 0 if no key).
  Status send(const std::string& topic, Payload key, Payload value);

  /// Partitioner-driven send: resolves the partition from the configured
  /// Partitioner and the topic's partition count (cached per topic).
  Status send(const std::string& topic, ProducerRecord record);

  /// send() plus a completion handle for the batch the record joined. In
  /// sync mode the ack completes at the flush that ships the batch; in
  /// async mode it completes when the simulated broker ack arrives.
  SendAck send_with_ack(const std::string& topic, int partition,
                        ProducerRecord record);

  /// Flushes all partition buffers. Async mode: hands every open buffer to
  /// the sender, then blocks until the queue and the in-flight window are
  /// drained; returns (and clears) the first sticky async error.
  Status flush();

  /// Async mode: hands open buffers to the sender WITHOUT waiting for acks
  /// — the end-of-window handoff used by sinks that must not stall the
  /// operator thread. Reports (but does not clear) any sticky error.
  /// Sync mode: identical to flush().
  Status flush_async();

  /// Flush + stop accepting records. Async mode also drains and joins the
  /// sender thread; a retryable broker outage that outlived the producer's
  /// retries surfaces here as a Status (kUnavailable), never a crash.
  Status close();

  std::uint64_t records_sent() const noexcept {
    return records_sent_.load(std::memory_order_relaxed);
  }
  /// Flush attempts that failed retryably and were re-sent.
  std::uint64_t send_retries() const noexcept {
    return send_retries_.load(std::memory_order_relaxed);
  }
  /// Async mode: batches shipped by the sender thread so far.
  std::uint64_t async_batches_sent() const noexcept {
    return async_batches_.load(std::memory_order_relaxed);
  }
  /// Async mode: times send() blocked because the pending queue was full.
  std::uint64_t backpressure_waits() const noexcept {
    return backpressure_waits_.load(std::memory_order_relaxed);
  }

 private:
  struct Buffer {
    TopicPartition tp;
    std::vector<ProducerRecord> records;
    BatchDeadline linger;                 // started at the first record
    std::shared_ptr<SendAck::State> ack;  // completion for the open batch
  };

  /// One write-combined batch queued to the sender thread.
  struct AsyncBatch {
    TopicPartition tp;
    std::vector<ProducerRecord> records;
    std::shared_ptr<SendAck::State> ack;
    std::int64_t enqueued_us = 0;
  };

  /// One dispatched broker request whose (simulated) ack is still on the
  /// wire. The sender completes it once `due_us` passes.
  struct InFlightRequest {
    std::int64_t due_us = 0;
    std::vector<std::shared_ptr<SendAck::State>> acks;
  };

  static constexpr std::size_t kNoBuffer = static_cast<std::size_t>(-1);

  Buffer& buffer_for(const std::string& topic, int partition);
  Status flush_buffer(Buffer& buffer);
  /// Routes a full buffer: sync mode appends in place, async mode enqueues.
  Status ship_buffer(Buffer& buffer);
  Status enqueue_batch(Buffer& buffer);

  void sender_loop();
  void dispatch_run(std::vector<AsyncBatch>& run);
  void wait_for_in_flight_slot();
  /// Pops and completes every in-flight request whose ack is due. Caller
  /// holds async_mutex_. Returns true when at least one request completed.
  bool complete_due_acks_locked(std::int64_t now_us);
  void drain_in_flight();

  static void complete_ack(const std::shared_ptr<SendAck::State>& ack,
                           const Status& status);

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
  std::atomic<std::uint64_t> records_sent_{0};
  std::atomic<std::uint64_t> send_retries_{0};
  bool closed_ = false;

  // --- async mode ----------------------------------------------------------
  // buffers_ stay caller-thread-only; ownership of a batch transfers to the
  // sender under async_mutex_. SendAck states have their own locks (acquired
  // after async_mutex_, never the other way around).
  mutable std::mutex async_mutex_;
  std::condition_variable wake_sender_;
  std::condition_variable wake_callers_;
  std::deque<AsyncBatch> pending_;
  std::deque<InFlightRequest> in_flight_;
  bool stop_sender_ = false;
  bool sender_busy_ = false;
  Status async_error_ = Status::ok();
  std::atomic<std::uint64_t> async_batches_{0};
  std::atomic<std::uint64_t> backpressure_waits_{0};
  runtime::Gauge inflight_gauge_;
  runtime::TimeHistogram queue_wait_hist_;
  std::thread sender_;  // last member: joined before the rest dies
};

}  // namespace dsps::kafka
