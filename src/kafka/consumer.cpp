#include "kafka/consumer.hpp"

#include <utility>

#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"
#include "runtime/profiler.hpp"
#include "runtime/watchdog.hpp"

namespace dsps::kafka {

namespace {

/// Attribution id for fetch-side stages (registered once, process-wide).
std::uint32_t fetch_op() {
  static const std::uint32_t op =
      runtime::Profiler::instance().operator_id("kafka.fetch");
  return op;
}

}  // namespace

Consumer::Consumer(Broker& broker, ConsumerConfig config)
    : broker_(broker), config_(std::move(config)) {}

Consumer::~Consumer() {
  if (group_mode_) {
    broker_.coordinator().leave(config_.group_id, group_topic_, member_id_);
  }
}

Status Consumer::subscribe_group(const std::string& topic) {
  if (config_.group_id.empty()) {
    return Status::invalid_argument("subscribe_group requires a group_id");
  }
  if (group_mode_) {
    return Status::failed_precondition("already subscribed to a group");
  }
  auto partitions = broker_.partition_count(topic);
  if (!partitions.is_ok()) return partitions.status();
  member_id_ = broker_.coordinator().join(config_.group_id, topic,
                                          partitions.value());
  group_topic_ = topic;
  group_mode_ = true;
  // First assignment lands at the next poll via sync_group().
  return Status::ok();
}

Status Consumer::leave_group() {
  if (!group_mode_) return Status::ok();
  commit();
  broker_.coordinator().leave(config_.group_id, group_topic_, member_id_);
  group_mode_ = false;
  assignments_.clear();
  next_partition_ = 0;
  seen_generation_ = -1;
  return Status::ok();
}

void Consumer::sync_group() {
  auto& coordinator = broker_.coordinator();
  const auto view =
      coordinator.sync(config_.group_id, group_topic_, member_id_);
  if (view.generation == seen_generation_) return;
  seen_generation_ = view.generation;

  // Cooperative revoke: everything poll returned so far has been processed
  // (the caller is between polls), so the position is safe to make durable.
  // Commit first, release second — the new owner starts exactly there.
  for (const int p : view.revoked) {
    const TopicPartition tp{group_topic_, p};
    for (std::size_t i = 0; i < assignments_.size(); ++i) {
      if (!(assignments_[i].tp == tp)) continue;
      broker_.commit_offset(config_.group_id, tp, assignments_[i].position);
      assignments_.erase(assignments_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      break;
    }
    coordinator.release(config_.group_id, group_topic_, member_id_, p);
  }

  // Adopt newly granted partitions at their committed offsets.
  for (const int p : view.owned) {
    const TopicPartition tp{group_topic_, p};
    bool already = false;
    for (const auto& assignment : assignments_) {
      if (assignment.tp == tp) {
        already = true;
        break;
      }
    }
    if (already) continue;
    const std::int64_t committed =
        broker_.committed_offset(config_.group_id, tp);
    assignments_.push_back(
        Assignment{.tp = tp, .position = committed >= 0 ? committed : 0});
  }
  next_partition_ = 0;
}

Status Consumer::subscribe(const std::string& topic) {
  auto partitions = broker_.partition_count(topic);
  if (!partitions.is_ok()) return partitions.status();
  for (int p = 0; p < partitions.value(); ++p) {
    const TopicPartition tp{topic, p};
    std::int64_t offset = 0;
    if (!config_.group_id.empty()) {
      const std::int64_t committed =
          broker_.committed_offset(config_.group_id, tp);
      if (committed >= 0) offset = committed;
    }
    assignments_.push_back(Assignment{.tp = tp, .position = offset});
  }
  return Status::ok();
}

Status Consumer::assign(const TopicPartition& tp, std::int64_t offset) {
  if (!broker_.topic_exists(tp.topic)) {
    return Status::not_found("topic not found: " + tp.topic);
  }
  assignments_.push_back(Assignment{.tp = tp, .position = offset});
  return Status::ok();
}

std::vector<ConsumedRecord> Consumer::poll(std::int64_t timeout_ms) {
  std::vector<ConsumedRecord> out;
  if (group_mode_) sync_group();
  if (assignments_.empty()) return out;

  std::vector<StoredRecord> fetched;
  // First pass: non-blocking round-robin over assignments.
  for (std::size_t i = 0; i < assignments_.size(); ++i) {
    auto& assignment = assignments_[next_partition_];
    next_partition_ = (next_partition_ + 1) % assignments_.size();
    fetched.clear();
    const auto fetched_count =
        broker_.fetch(assignment.tp, assignment.position,
                      config_.max_poll_records - out.size(), fetched);
    if (fetched_count.is_ok() && fetched_count.value() > 0) {
      // Advance past the last *actual* offset: a retention-trimmed head
      // clamps the fetch forward, and += count would lag behind forever.
      assignment.position = fetched.back().offset + 1;
      for (auto& record : fetched) {
        out.push_back(ConsumedRecord{.tp = assignment.tp,
                                     .offset = record.offset,
                                     .key = std::move(record.key),
                                     .value = std::move(record.value),
                                     .timestamp = record.timestamp});
      }
      if (out.size() >= config_.max_poll_records) return out;
    }
  }
  if (!out.empty() || timeout_ms <= 0) return out;

  // Nothing available: block on the first assignment for the timeout.
  auto& assignment = assignments_.front();
  fetched.clear();
  const auto fetched_count = broker_.fetch_blocking(
      assignment.tp, assignment.position, config_.max_poll_records,
      timeout_ms, fetched);
  if (fetched_count.is_ok() && !fetched.empty()) {
    assignment.position = fetched.back().offset + 1;
    for (auto& record : fetched) {
      out.push_back(ConsumedRecord{.tp = assignment.tp,
                                   .offset = record.offset,
                                   .key = std::move(record.key),
                                   .value = std::move(record.value),
                                   .timestamp = record.timestamp});
    }
  }
  return out;
}

FetchState Consumer::poll_batch(std::int64_t timeout_ms, FetchBatch& out) {
  out.records.clear();
  out.base_offset = 0;
  runtime::Watchdog::pet();
  if (group_mode_) sync_group();
  if (assignments_.empty()) {
    return broker_.shutting_down() ? FetchState::kClosed : FetchState::kOk;
  }
  runtime::FaultInjector::instance().maybe_stall(
      runtime::FaultPoint::kSlowConsumer, assignments_.front().tp.topic);

  // Finishes a fetch that returned data: positions advance to just past the
  // last record's *actual* offset, so a retention-trimmed head (fetch
  // clamped forward to the log start) is both survived and surfaced.
  const auto finish_batch = [this, &out](Assignment& assignment) {
    out.tp = assignment.tp;
    out.base_offset = out.records.front().offset;
    const bool reset = out.base_offset > assignment.position;
    assignment.position = out.records.back().offset + 1;
    if (reset) {
      runtime::MetricsRegistry::global()
          .counter("kafka.consumer.out_of_range_resets")
          .add(1);
      return FetchState::kOutOfRange;
    }
    return drained_state();
  };

  // Non-blocking round-robin: first assignment with data wins the batch.
  // Fetches that return data are broker round-trips.
  {
    runtime::ScopedStage rtt(runtime::Stage::kBrokerRtt,
                             runtime::ScopedStage::Mode::kAlways, fetch_op());
    for (std::size_t i = 0; i < assignments_.size(); ++i) {
      auto& assignment = assignments_[next_partition_];
      next_partition_ = (next_partition_ + 1) % assignments_.size();
      const auto fetched_count =
          broker_.fetch(assignment.tp, assignment.position,
                        config_.max_poll_records, out.records);
      if (fetched_count.is_ok() && fetched_count.value() > 0) {
        return finish_batch(assignment);
      }
    }
  }
  // Once no more data can arrive a consumer never waits: nothing was
  // immediately fetchable, so this is the (empty) final batch.
  if (drained_state() == FetchState::kClosed) return FetchState::kClosed;
  if (timeout_ms <= 0) return FetchState::kOk;

  // Nothing available: block on the first assignment for the timeout —
  // idle-input time, attributed as queue_wait, not broker cost, and marked
  // watchdog-idle (a legitimate block, not a stall).
  // Broker shutdown / topic seal interrupts the wait via
  // PartitionLog::close().
  auto& assignment = assignments_.front();
  runtime::Watchdog::IdleScope idle;
  runtime::ScopedStage wait(runtime::Stage::kQueueWait,
                            runtime::ScopedStage::Mode::kAlways, fetch_op());
  const auto fetched_count = broker_.fetch_blocking(
      assignment.tp, assignment.position, config_.max_poll_records, timeout_ms,
      out.records);
  if (fetched_count.is_ok() && fetched_count.value() > 0) {
    return finish_batch(assignment);
  }
  return drained_state();
}

FetchState Consumer::drained_state() const {
  if (broker_.shutting_down()) return FetchState::kClosed;
  if (at_sealed_end()) return FetchState::kClosed;
  return FetchState::kOk;
}

Status Consumer::seek(const TopicPartition& tp, std::int64_t offset) {
  for (auto& assignment : assignments_) {
    if (assignment.tp == tp) {
      assignment.position = offset;
      return Status::ok();
    }
  }
  return Status::not_found("partition not assigned: " + tp.topic);
}

void Consumer::commit() {
  if (config_.group_id.empty()) return;
  auto& registry = runtime::MetricsRegistry::global();
  for (const auto& assignment : assignments_) {
    broker_.commit_offset(config_.group_id, assignment.tp,
                          assignment.position);
    // Per-partition consumer-lag gauge: records appended beyond the offset
    // just committed. The scaling/elasticity work keys off these.
    const auto end = broker_.end_offset(assignment.tp);
    if (end.is_ok()) {
      const double lag =
          static_cast<double>(end.value() - assignment.position);
      const std::string key = config_.group_id + "." + assignment.tp.topic +
                              ".p" +
                              std::to_string(assignment.tp.partition);
      registry.gauge("kafka.consumer.lag." + key).set(lag);
    }
  }
}

std::vector<std::pair<TopicPartition, std::int64_t>> Consumer::positions()
    const {
  std::vector<std::pair<TopicPartition, std::int64_t>> out;
  out.reserve(assignments_.size());
  for (const auto& assignment : assignments_) {
    out.emplace_back(assignment.tp, assignment.position);
  }
  return out;
}

bool Consumer::at_end() const {
  for (const auto& assignment : assignments_) {
    const auto end = broker_.end_offset(assignment.tp);
    if (!end.is_ok() || assignment.position < end.value()) return false;
  }
  return true;
}

bool Consumer::at_sealed_end() const {
  if (assignments_.empty()) return false;
  for (const auto& assignment : assignments_) {
    if (!broker_.partition_sealed(assignment.tp)) return false;
    const auto end = broker_.end_offset(assignment.tp);
    if (!end.is_ok() || assignment.position < end.value()) return false;
  }
  return true;
}

}  // namespace dsps::kafka
