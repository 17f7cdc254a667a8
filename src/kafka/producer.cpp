#include "kafka/producer.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "runtime/fault.hpp"
#include "runtime/profiler.hpp"

namespace dsps::kafka {

namespace {

/// The backoff between a flush's retries (see kProducerMaxRetries).
constexpr runtime::BackoffPolicy kRetryBackoff{
    .initial_us = 200, .multiplier = 2.0, .max_us = 10'000};

/// Attribution id for produce-side stages (registered once, process-wide).
std::uint32_t produce_op() {
  static const std::uint32_t op =
      runtime::Profiler::instance().operator_id("kafka.produce");
  return op;
}

/// Waits until `until_us` on the steady clock. Short waits spin: sleep
/// granularity on a loaded box is tens of microseconds, which would distort
/// the network model at that time scale. Long waits sleep and yield the core
/// — an in-flight network wait occupies no CPU, and modelling it as a spin
/// would (on small machines) serialize the very latency overlap that
/// pipelining and scale-out exist to exploit.
constexpr std::int64_t kSleepableWaitUs = 200;

void wait_until_us(std::int64_t until_us) {
  const std::int64_t now = steady_clock_us();
  if (until_us <= now) return;
  if (until_us - now >= kSleepableWaitUs) {
    std::this_thread::sleep_for(std::chrono::microseconds(until_us - now));
    return;
  }
  while (steady_clock_us() < until_us) {
    // busy wait
  }
}

}  // namespace

Producer::Producer(Broker& broker, ProducerConfig config)
    : broker_(broker), config_(config) {
  require(config_.batch_size >= 1, "producer batch_size must be >= 1");
}

Producer::~Producer() {
  // Best effort: drop errors on destruction; call close() to observe them.
  (void)close();
}

Producer::Buffer& Producer::buffer_for(const std::string& topic,
                                       int partition) {
  if (last_buffer_ != kNoBuffer) {
    Buffer& last = buffers_[last_buffer_];
    if (last.tp.partition == partition && last.tp.topic == topic) return last;
  }
  if (partition < 0) {
    // Invalid partitions surface as broker errors at flush time; keep the
    // old scan-or-create path for them rather than indexing by partition.
    for (std::size_t i = 0; i < buffers_.size(); ++i) {
      if (buffers_[i].tp.partition == partition &&
          buffers_[i].tp.topic == topic) {
        last_buffer_ = i;
        return buffers_[i];
      }
    }
    last_buffer_ = buffers_.size();
    buffers_.push_back(Buffer{.tp = {topic, partition}, .records = {}});
    buffers_.back().records.reserve(config_.batch_size);
    return buffers_.back();
  }
  auto& slots = buffer_index_[topic];
  const auto p = static_cast<std::size_t>(partition);
  if (p >= slots.size()) slots.resize(p + 1, kNoBuffer);
  if (slots[p] == kNoBuffer) {
    slots[p] = buffers_.size();
    buffers_.push_back(Buffer{.tp = {topic, partition}, .records = {}});
    buffers_.back().records.reserve(config_.batch_size);
  }
  last_buffer_ = slots[p];
  return buffers_[slots[p]];
}

Status Producer::send(const std::string& topic, int partition,
                      ProducerRecord record) {
  if (closed_) return Status::closed("producer is closed");
  Buffer& buffer = buffer_for(topic, partition);
  if (buffer.records.empty()) buffer.linger.start();
  buffer.records.push_back(std::move(record));
  const std::size_t buffered = buffer.records.size();
  if (buffered >= config_.batch_size ||
      (config_.linger_us > 0 &&
       buffer.linger.expired(buffered, config_.linger_us))) {
    return flush_buffer(buffer);
  }
  return Status::ok();
}

Status Producer::send(const std::string& topic, ProducerRecord record) {
  auto count_it = partition_counts_.find(topic);
  if (count_it == partition_counts_.end()) {
    auto partitions = broker_.partition_count(topic);
    if (!partitions.is_ok()) return partitions.status();
    count_it = partition_counts_.emplace(topic, partitions.value()).first;
  }
  const auto n = static_cast<std::uint64_t>(count_it->second);
  int partition = 0;
  if (config_.partitioner == Partitioner::kKeyHash && !record.key.empty()) {
    partition = static_cast<int>(fnv1a(record.key.view()) % n);
  } else {
    partition = static_cast<int>(round_robin_++ % n);
  }
  return send(topic, partition, std::move(record));
}

Status Producer::flush_buffer(Buffer& buffer) {
  if (buffer.records.empty()) return Status::ok();
  // Sync produce path: append (with retries) plus the modelled ack
  // round-trip are one broker RTT from the caller's point of view.
  runtime::ScopedStage rtt(runtime::Stage::kBrokerRtt, produce_op());
  // The buffer is cleared only after an attempt the broker accepted (or a
  // terminal error): a retryable failure must keep the records, or every
  // unavailability window would silently drop a batch.
  runtime::Backoff backoff(kRetryBackoff);
  Result<std::int64_t> result = Status::internal("no append attempted");
  for (int attempt = 0;; ++attempt) {
    result = buffer.records.size() == 1
                 ? broker_.append(buffer.tp, buffer.records.front(),
                                  /*wait_for_replication=*/false)
                 : broker_.append_batch(buffer.tp, buffer.records,
                                        /*wait_for_replication=*/false);
    const bool retryable =
        result.status().code() == StatusCode::kUnavailable;
    if (result.is_ok() || !retryable || attempt >= kProducerMaxRetries) break;
    ++send_retries_;
    backoff.sleep();
  }
  buffer.records.clear();
  // One network round trip per flush when the broker simulates a network.
  const std::int64_t rtt_us = broker_.rtt_us();
  if (rtt_us > 0) wait_until_us(steady_clock_us() + rtt_us);
  return result.status();
}

Status Producer::flush() {
  for (auto& buffer : buffers_) {
    if (Status s = flush_buffer(buffer); !s.is_ok()) return s;
  }
  return Status::ok();
}

Status Producer::close() {
  if (closed_) return Status::ok();
  Status s = flush();
  closed_ = true;
  return s;
}

}  // namespace dsps::kafka
