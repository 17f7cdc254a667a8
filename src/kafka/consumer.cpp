#include "kafka/consumer.hpp"

#include <algorithm>
#include <limits>
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

Status Consumer::subscribe(const std::string& topic, bool bounded,
                           Shard shard) {
  if (shard.count < 1 || shard.index < 0 || shard.index >= shard.count) {
    return Status::invalid_argument("shard index out of range");
  }
  auto partitions = broker_.partition_count(topic);
  if (!partitions.is_ok()) return partitions.status();
  topic_ = topic;
  bounded_ = bounded;
  for (int p = shard.index; p < partitions.value(); p += shard.count) {
    const TopicPartition tp{topic, p};
    std::int64_t offset = 0;
    if (!config_.group_id.empty()) {
      const std::int64_t committed =
          broker_.committed_offset(config_.group_id, tp);
      if (committed >= 0) offset = committed;
    }
    std::int64_t end = kUntilSealed;
    if (bounded) {
      const auto end_offset = broker_.end_offset(tp);
      if (!end_offset.is_ok()) return end_offset.status();
      end = end_offset.value();
    }
    assignments_.push_back(
        Assignment{.tp = tp, .position = offset, .end = end});
  }
  return Status::ok();
}

FetchState Consumer::poll_batch(std::int64_t timeout_ms, FetchBatch& out) {
  out.records.clear();
  out.base_offset = 0;
  runtime::Watchdog::pet();
  if (assignments_.empty()) {
    // An empty open-loop slice parks until its topic is sealed: the fetch
    // waits past the end of partition 0 and copies nothing.
    if (drained_state() == FetchState::kClosed) return FetchState::kClosed;
    if (topic_.empty() || timeout_ms <= 0) return FetchState::kOk;
    runtime::Watchdog::IdleScope idle;
    (void)broker_.fetch_blocking({topic_, 0},
                                 std::numeric_limits<std::int64_t>::max(), 0,
                                 timeout_ms, out.records);
    return drained_state();
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
    runtime::ScopedStage rtt(runtime::Stage::kBrokerRtt, fetch_op());
    for (std::size_t i = 0; i < assignments_.size(); ++i) {
      auto& assignment = assignments_[next_partition_];
      next_partition_ = (next_partition_ + 1) % assignments_.size();
      const std::size_t limit = fetch_limit(assignment);
      if (limit == 0) continue;
      const auto fetched_count = broker_.fetch(
          assignment.tp, assignment.position, limit, out.records);
      if (fetched_count.is_ok() && fetched_count.value() > 0) {
        return finish_batch(assignment);
      }
    }
  }
  // Once no more data can arrive a consumer never waits: nothing was
  // immediately fetchable, so this is the (empty) final batch.
  if (drained_state() == FetchState::kClosed) return FetchState::kClosed;
  if (timeout_ms <= 0) return FetchState::kOk;

  // Nothing available: block on the first unfinished assignment for the
  // timeout — idle-input time, attributed as queue_wait, not broker cost,
  // and marked watchdog-idle (a legitimate block, not a stall).
  // Broker shutdown / topic seal interrupts the wait via
  // PartitionLog::close().
  auto& assignment = *std::find_if(
      assignments_.begin(), assignments_.end(),
      [this](const Assignment& a) { return fetch_limit(a) > 0; });
  runtime::Watchdog::IdleScope idle;
  runtime::ScopedStage wait(runtime::Stage::kQueueWait, fetch_op());
  const auto fetched_count =
      broker_.fetch_blocking(assignment.tp, assignment.position,
                             fetch_limit(assignment), timeout_ms, out.records);
  if (fetched_count.is_ok() && fetched_count.value() > 0) {
    return finish_batch(assignment);
  }
  return drained_state();
}

std::size_t Consumer::fetch_limit(const Assignment& assignment) const {
  if (assignment.end == kUntilSealed) return config_.max_poll_records;
  if (assignment.position >= assignment.end) return 0;
  return std::min(config_.max_poll_records,
                  static_cast<std::size_t>(assignment.end -
                                           assignment.position));
}

bool Consumer::finished() const {
  if (assignments_.empty()) {
    // An unsubscribed consumer never ends on its own.
    if (topic_.empty()) return false;
    return bounded_ || broker_.topic_sealed(topic_);
  }
  for (const auto& assignment : assignments_) {
    if (assignment.end != kUntilSealed) {
      if (assignment.position < assignment.end) return false;
      continue;
    }
    if (!broker_.partition_sealed(assignment.tp)) return false;
    const auto end = broker_.end_offset(assignment.tp);
    if (!end.is_ok() || assignment.position < end.value()) return false;
  }
  return true;
}

FetchState Consumer::drained_state() const {
  if (broker_.shutting_down() || finished()) return FetchState::kClosed;
  return FetchState::kOk;
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

}  // namespace dsps::kafka
