#include "kafka/producer.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "runtime/credit_gate.hpp"
#include "runtime/profiler.hpp"
#include "runtime/watchdog.hpp"

namespace dsps::kafka {

namespace {

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

Status SendAck::wait() const {
  if (!state_) return Status::ok();
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->status;
}

bool SendAck::done() const {
  if (!state_) return true;
  std::lock_guard lock(state_->mutex);
  return state_->done;
}

Producer::Producer(Broker& broker, ProducerConfig config)
    : broker_(broker), config_(config) {
  require(config_.batch_size >= 1, "producer batch_size must be >= 1");
  if (config_.async) {
    require(config_.max_in_flight >= 1, "max_in_flight must be >= 1");
    require(config_.max_pending_batches >= 1,
            "max_pending_batches must be >= 1");
    auto& registry = runtime::MetricsRegistry::global();
    inflight_gauge_ = registry.gauge("kafka.producer.inflight");
    queue_wait_hist_ = registry.histogram("kafka.producer.queue_wait_us");
    pending_source_ =
        runtime::CreditGate::instance().register_source("kafka.producer.pending");
    sender_ = std::thread([this] { sender_loop(); });
  }
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
  records_sent_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t buffered = buffer.records.size();
  if (buffered >= config_.batch_size ||
      (config_.linger_us > 0 &&
       buffer.linger.expired(buffered, config_.linger_us))) {
    return ship_buffer(buffer);
  }
  return Status::ok();
}

Status Producer::send(const std::string& topic, Payload key, Payload value) {
  auto partitions = broker_.partition_count(topic);
  if (!partitions.is_ok()) return partitions.status();
  const int partition =
      key.empty() ? 0
                  : static_cast<int>(fnv1a(key.view()) %
                                     static_cast<std::uint64_t>(
                                         partitions.value()));
  return send(topic, partition,
              ProducerRecord{.key = std::move(key), .value = std::move(value)});
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

SendAck Producer::send_with_ack(const std::string& topic, int partition,
                                ProducerRecord record) {
  if (closed_) {
    auto state = std::make_shared<SendAck::State>();
    state->done = true;
    state->status = Status::closed("producer is closed");
    return SendAck(std::move(state));
  }
  // The ack is shared by every record in the open batch: it completes when
  // the batch the record joined is durable (or terminally failed).
  Buffer& buffer = buffer_for(topic, partition);
  if (!buffer.ack) buffer.ack = std::make_shared<SendAck::State>();
  SendAck ack(buffer.ack);
  // send() may ship the buffer (batch full / linger expired); sync-mode ship
  // completes the ack inline, async-mode ship transfers it to the sender.
  (void)send(topic, partition, std::move(record));
  return ack;
}

Status Producer::ship_buffer(Buffer& buffer) {
  return config_.async ? enqueue_batch(buffer) : flush_buffer(buffer);
}

Status Producer::flush_buffer(Buffer& buffer) {
  if (buffer.records.empty()) return Status::ok();
  // Sync produce path: append (with retries) plus the modelled ack
  // round-trip are one broker RTT from the caller's point of view.
  runtime::ScopedStage rtt(runtime::Stage::kBrokerRtt, produce_op());
  const bool wait_replication = config_.acks == Acks::kAll;
  // The buffer is cleared only after an attempt the broker accepted (or a
  // terminal error): a retryable failure must keep the records, or every
  // unavailability window would silently drop a batch.
  runtime::Backoff backoff(config_.retry_backoff);
  Result<std::int64_t> result = Status::internal("no append attempted");
  for (int attempt = 0;; ++attempt) {
    result = buffer.records.size() == 1
                 ? broker_.append(buffer.tp, buffer.records.front(),
                                  wait_replication)
                 : broker_.append_batch(buffer.tp, buffer.records,
                                        wait_replication);
    const bool retryable =
        result.status().code() == StatusCode::kUnavailable;
    if (result.is_ok() || !retryable || attempt >= config_.max_retries) break;
    send_retries_.fetch_add(1, std::memory_order_relaxed);
    backoff.sleep();
  }
  buffer.records.clear();
  // One network round trip per flush when the broker simulates a network
  // (acks=0 producers fire and forget: no ack to wait for).
  if (config_.acks != Acks::kNone) {
    const std::int64_t rtt_us = broker_.rtt_us();
    if (rtt_us > 0) wait_until_us(steady_clock_us() + rtt_us);
  }
  if (buffer.ack) {
    complete_ack(buffer.ack, result.status());
    buffer.ack.reset();
  }
  return result.status();
}

Status Producer::enqueue_batch(Buffer& buffer) {
  if (buffer.records.empty()) return Status::ok();
  AsyncBatch batch{.tp = buffer.tp,
                   .records = std::move(buffer.records),
                   .ack = std::move(buffer.ack),
                   .enqueued_us = steady_clock_us()};
  buffer.records.clear();
  buffer.records.reserve(config_.batch_size);
  buffer.ack.reset();
  {
    std::unique_lock lock(async_mutex_);
    if (pending_.size() >= config_.max_pending_batches) {
      backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
      // Producer backpressure: the caller stalls on the bounded pending
      // queue until the sender drains it. A legitimate block, not a stall —
      // mark it watchdog-idle.
      runtime::Watchdog::IdleScope idle;
      runtime::ScopedStage wait(runtime::Stage::kQueueWait, produce_op());
      wake_callers_.wait(lock, [this] {
        return pending_.size() < config_.max_pending_batches || stop_sender_;
      });
    }
    if (stop_sender_) {
      const Status closed = Status::closed("producer sender is stopped");
      if (batch.ack) complete_ack(batch.ack, closed);
      return closed;
    }
    pending_.push_back(std::move(batch));
    pending_source_.set_depth(pending_.size(), config_.max_pending_batches);
  }
  wake_sender_.notify_one();
  return Status::ok();
}

void Producer::sender_loop() {
  // The sender heartbeats the stall watchdog: a wedged broker append (or an
  // injected stall) inside dispatch_run stops the beats and gets flagged.
  runtime::Watchdog::Registration watchdog_slot("kafka-sender");
  std::vector<AsyncBatch> run;
  for (;;) {
    runtime::Watchdog::pet();
    run.clear();
    {
      std::unique_lock lock(async_mutex_);
      for (;;) {
        if (complete_due_acks_locked(steady_clock_us())) {
          wake_callers_.notify_all();
        }
        if (!pending_.empty() || stop_sender_) break;
        if (in_flight_.empty()) {
          runtime::Watchdog::IdleScope idle;
          wake_sender_.wait(lock);
        } else {
          // Wake when the oldest outstanding ack is due so SendAck::wait()
          // completes promptly even when no further sends arrive.
          runtime::Watchdog::IdleScope idle;
          const std::int64_t due = in_flight_.front().due_us;
          wake_sender_.wait_for(
              lock, std::chrono::microseconds(
                        std::max<std::int64_t>(
                            1, due - steady_clock_us())));
        }
      }
      if (pending_.empty() && stop_sender_) break;
      // Write-combining at the request level: everything queued right now
      // ships as one bulk broker request.
      while (!pending_.empty()) {
        run.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      pending_source_.set_depth(0, config_.max_pending_batches);
      sender_busy_ = true;
    }
    wake_callers_.notify_all();  // the queue has room again
    dispatch_run(run);
    {
      std::lock_guard lock(async_mutex_);
      sender_busy_ = false;
    }
    wake_callers_.notify_all();  // flush() waiters re-check the drain predicate
  }
  drain_in_flight();
}

void Producer::dispatch_run(std::vector<AsyncBatch>& run) {
  const bool wait_replication = config_.acks == Acks::kAll;
  const std::int64_t dispatched_us = steady_clock_us();
  for (const auto& batch : run) {
    queue_wait_hist_.record_us(
        static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, dispatched_us - batch.enqueued_us)));
  }
  // Respect the pipelining window BEFORE issuing the next request: with
  // max_in_flight requests outstanding, the producer stalls on the oldest
  // unacked request, exactly like max.in.flight.requests.per.connection.
  wait_for_in_flight_slot();

  std::vector<TopicBatch> request;
  request.reserve(run.size());
  for (auto& batch : run) {
    request.push_back(TopicBatch{batch.tp, std::move(batch.records)});
  }
  // append_many is all-or-nothing, so the whole request can be retried
  // after an unavailability window without duplicating any batch — and a
  // retry-in-place (rather than skip-and-continue) is what preserves
  // per-partition ordering across failures.
  runtime::Backoff backoff(config_.retry_backoff);
  Result<std::size_t> result = Status::internal("no append attempted");
  {
    runtime::ScopedStage rtt(runtime::Stage::kBrokerRtt, produce_op());
    for (int attempt = 0;; ++attempt) {
      result = broker_.append_many(request, wait_replication);
      const bool retryable =
          result.status().code() == StatusCode::kUnavailable;
      if (result.is_ok() || !retryable || attempt >= config_.max_retries) {
        break;
      }
      send_retries_.fetch_add(1, std::memory_order_relaxed);
      backoff.sleep();
    }
  }
  async_batches_.fetch_add(run.size(), std::memory_order_relaxed);

  std::vector<std::shared_ptr<SendAck::State>> acks;
  for (auto& batch : run) {
    if (batch.ack) acks.push_back(std::move(batch.ack));
  }
  if (!result.is_ok()) {
    for (const auto& ack : acks) complete_ack(ack, result.status());
    std::lock_guard lock(async_mutex_);
    if (async_error_.is_ok()) async_error_ = result.status();
    return;
  }
  if (config_.acks == Acks::kNone) {
    // Fire and forget: no ack comes back, nothing occupies the window.
    for (const auto& ack : acks) complete_ack(ack, Status::ok());
    return;
  }
  const std::int64_t due = steady_clock_us() + broker_.rtt_us();
  std::lock_guard lock(async_mutex_);
  in_flight_.push_back(InFlightRequest{due, std::move(acks)});
  inflight_gauge_.set(static_cast<double>(in_flight_.size()));
}

void Producer::wait_for_in_flight_slot() {
  for (;;) {
    std::int64_t due = 0;
    {
      std::lock_guard lock(async_mutex_);
      complete_due_acks_locked(steady_clock_us());
      if (in_flight_.size() < config_.max_in_flight) return;
      due = in_flight_.front().due_us;
    }
    wake_callers_.notify_all();
    wait_until_us(due);
  }
}

bool Producer::complete_due_acks_locked(std::int64_t now_us) {
  bool completed = false;
  while (!in_flight_.empty() && in_flight_.front().due_us <= now_us) {
    for (const auto& ack : in_flight_.front().acks) {
      complete_ack(ack, Status::ok());
    }
    in_flight_.pop_front();
    completed = true;
  }
  if (completed) {
    inflight_gauge_.set(static_cast<double>(in_flight_.size()));
  }
  return completed;
}

void Producer::drain_in_flight() {
  std::unique_lock lock(async_mutex_);
  while (!in_flight_.empty()) {
    const std::int64_t due = in_flight_.back().due_us;
    lock.unlock();
    wait_until_us(due);
    lock.lock();
    complete_due_acks_locked(steady_clock_us());
  }
  lock.unlock();
  wake_callers_.notify_all();
}

void Producer::complete_ack(const std::shared_ptr<SendAck::State>& ack,
                            const Status& status) {
  {
    std::lock_guard lock(ack->mutex);
    if (ack->done) return;
    ack->done = true;
    ack->status = status;
  }
  ack->cv.notify_all();
}

Status Producer::flush() {
  if (!config_.async) {
    for (auto& buffer : buffers_) {
      if (Status s = flush_buffer(buffer); !s.is_ok()) return s;
    }
    return Status::ok();
  }
  for (auto& buffer : buffers_) {
    if (Status s = enqueue_batch(buffer); !s.is_ok()) return s;
  }
  std::unique_lock lock(async_mutex_);
  wake_sender_.notify_one();  // the sender may be sleeping on an ack timer
  wake_callers_.wait(lock, [this] {
    return pending_.empty() && !sender_busy_ && in_flight_.empty();
  });
  return std::exchange(async_error_, Status::ok());
}

Status Producer::flush_async() {
  if (!config_.async) return flush();
  for (auto& buffer : buffers_) {
    if (Status s = enqueue_batch(buffer); !s.is_ok()) return s;
  }
  std::lock_guard lock(async_mutex_);
  return async_error_;  // peek only: flush()/close() own clearing it
}

Status Producer::close() {
  if (closed_) return Status::ok();
  Status s = flush();
  closed_ = true;
  if (config_.async) {
    {
      std::lock_guard lock(async_mutex_);
      stop_sender_ = true;
    }
    wake_sender_.notify_all();
    wake_callers_.notify_all();
    if (sender_.joinable()) sender_.join();
    if (s.is_ok()) {
      std::lock_guard lock(async_mutex_);
      s = std::exchange(async_error_, Status::ok());
    }
  }
  return s;
}

}  // namespace dsps::kafka
