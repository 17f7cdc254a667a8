#include "kafka/broker.hpp"

#include <shared_mutex>
#include <utility>

#include "runtime/fault.hpp"

namespace dsps::kafka {

void Broker::begin_shutdown() {
  shutting_down_.store(true, std::memory_order_release);
  std::shared_lock lock(mutex_);
  for (auto& [name, topic] : topics_) {
    for (auto& replica : topic.replicas) {
      for (auto& log : replica) log->close();
    }
  }
}

Status Broker::seal_topic(const std::string& name) {
  std::shared_lock lock(mutex_);
  const auto it = topics_.find(name);
  if (it == topics_.end()) {
    return Status::not_found("topic not found: " + name);
  }
  for (auto& replica : it->second.replicas) {
    for (auto& log : replica) log->close();
  }
  return Status::ok();
}

bool Broker::topic_sealed(const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = topics_.find(name);
  if (it == topics_.end()) return false;
  for (const auto& log : it->second.replicas[0]) {
    if (!log->closed()) return false;
  }
  return true;
}

bool Broker::partition_sealed(const TopicPartition& tp) const {
  auto topic = topic_for(tp);
  if (!topic.is_ok()) return false;
  return topic.value()
      ->replicas[0][static_cast<std::size_t>(tp.partition)]
      ->closed();
}

Status Broker::set_retention(const std::string& name, RetentionConfig config) {
  std::shared_lock lock(mutex_);
  const auto it = topics_.find(name);
  if (it == topics_.end()) {
    return Status::not_found("topic not found: " + name);
  }
  for (auto& replica : it->second.replicas) {
    for (auto& log : replica) log->set_retention(config);
  }
  return Status::ok();
}

std::int64_t Broker::retained_bytes(const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = topics_.find(name);
  if (it == topics_.end()) return 0;
  std::int64_t total = 0;
  for (const auto& log : it->second.replicas[0]) {
    total += log->retained_bytes();
  }
  return total;
}

Status Broker::create_topic(const std::string& name,
                            const TopicConfig& config) {
  if (config.partitions < 1) {
    return Status::invalid_argument("topic needs at least one partition");
  }
  if (config.replication_factor < 1) {
    return Status::invalid_argument("replication factor must be >= 1");
  }
  std::lock_guard lock(mutex_);
  if (topics_.contains(name)) {
    return Status::already_exists("topic exists: " + name);
  }
  Topic topic;
  topic.config = config;
  topic.replicas.resize(static_cast<std::size_t>(config.replication_factor));
  for (auto& replica : topic.replicas) {
    replica.reserve(static_cast<std::size_t>(config.partitions));
    for (int p = 0; p < config.partitions; ++p) {
      replica.push_back(std::make_unique<PartitionLog>(segment_pool_));
    }
  }
  topics_.emplace(name, std::move(topic));
  return Status::ok();
}

Status Broker::delete_topic(const std::string& name) {
  decltype(topics_)::node_type deleted;
  {
    std::lock_guard lock(mutex_);
    deleted = topics_.extract(name);
  }
  if (deleted.empty()) {
    return Status::not_found("topic not found: " + name);
  }
  // The logs return their segments to the pool as `deleted` goes out of
  // scope, outside the topic-map lock.
  return Status::ok();
}

bool Broker::topic_exists(const std::string& name) const {
  std::shared_lock lock(mutex_);
  return topics_.contains(name);
}

Result<TopicMetadata> Broker::describe_topic(const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = topics_.find(name);
  if (it == topics_.end()) {
    return Status::not_found("topic not found: " + name);
  }
  return TopicMetadata{.name = name, .config = it->second.config};
}

std::vector<std::string> Broker::list_topics() const {
  std::shared_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(topics_.size());
  for (const auto& [name, topic] : topics_) names.push_back(name);
  return names;
}

const Broker::Topic* Broker::find_topic(const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = topics_.find(name);
  return it == topics_.end() ? nullptr : &it->second;
}

Result<const Broker::Topic*> Broker::topic_for(const TopicPartition& tp) const {
  const Topic* topic = find_topic(tp.topic);
  if (topic == nullptr) {
    return Status::not_found("topic not found: " + tp.topic);
  }
  if (tp.partition < 0 ||
      tp.partition >= topic->config.partitions) {
    return Status::invalid_argument("partition out of range for " + tp.topic);
  }
  return topic;
}

Result<std::int64_t> Broker::append(const TopicPartition& tp,
                                    const ProducerRecord& record,
                                    bool wait_for_replication) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return Status::closed("broker is shutting down");
  }
  if (runtime::FaultInjector::instance().broker_unavailable(tp.topic)) {
    return Status::unavailable("injected broker outage: " + tp.topic);
  }
  auto topic = topic_for(tp);
  if (!topic.is_ok()) return topic.status();
  const auto p = static_cast<std::size_t>(tp.partition);
  const std::int64_t offset = topic.value()->replicas[0][p]->append(record);
  if (wait_for_replication) {
    for (std::size_t r = 1; r < topic.value()->replicas.size(); ++r) {
      topic.value()->replicas[r][p]->append(record);
    }
  }
  return offset;
}

Result<std::int64_t> Broker::append_batch(
    const TopicPartition& tp, const std::vector<ProducerRecord>& records,
    bool wait_for_replication) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return Status::closed("broker is shutting down");
  }
  if (runtime::FaultInjector::instance().broker_unavailable(tp.topic)) {
    return Status::unavailable("injected broker outage: " + tp.topic);
  }
  auto topic = topic_for(tp);
  if (!topic.is_ok()) return topic.status();
  const auto p = static_cast<std::size_t>(tp.partition);
  const std::int64_t last =
      topic.value()->replicas[0][p]->append_batch(records);
  if (wait_for_replication) {
    for (std::size_t r = 1; r < topic.value()->replicas.size(); ++r) {
      topic.value()->replicas[r][p]->append_batch(records);
    }
  }
  return last;
}

Result<std::size_t> Broker::fetch(const TopicPartition& tp,
                                  std::int64_t offset,
                                  std::size_t max_records,
                                  std::vector<StoredRecord>& out) const {
  auto topic = topic_for(tp);
  if (!topic.is_ok()) return topic.status();
  const auto p = static_cast<std::size_t>(tp.partition);
  return topic.value()->replicas[0][p]->fetch(offset, max_records, out);
}

Result<std::size_t> Broker::fetch_blocking(const TopicPartition& tp,
                                           std::int64_t offset,
                                           std::size_t max_records,
                                           std::int64_t timeout_ms,
                                           std::vector<StoredRecord>& out)
    const {
  auto topic = topic_for(tp);
  if (!topic.is_ok()) return topic.status();
  const auto p = static_cast<std::size_t>(tp.partition);
  return topic.value()->replicas[0][p]->fetch_blocking(offset, max_records,
                                                       timeout_ms, out);
}

Result<std::int64_t> Broker::end_offset(const TopicPartition& tp) const {
  auto topic = topic_for(tp);
  if (!topic.is_ok()) return topic.status();
  const auto p = static_cast<std::size_t>(tp.partition);
  return topic.value()->replicas[0][p]->end_offset();
}

Result<PartitionInfo> Broker::partition_info(const TopicPartition& tp) const {
  auto topic = topic_for(tp);
  if (!topic.is_ok()) return topic.status();
  const auto p = static_cast<std::size_t>(tp.partition);
  return topic.value()->replicas[0][p]->info();
}

Result<int> Broker::partition_count(const std::string& topic) const {
  std::shared_lock lock(mutex_);
  const auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return Status::not_found("topic not found: " + topic);
  }
  return it->second.config.partitions;
}

void Broker::commit_offset(const std::string& group, const TopicPartition& tp,
                           std::int64_t offset) {
  std::lock_guard lock(offsets_mutex_);
  group_offsets_[group][tp.topic][tp.partition] = offset;
}

std::int64_t Broker::committed_offset(const std::string& group,
                                      const TopicPartition& tp) const {
  std::lock_guard lock(offsets_mutex_);
  const auto group_it = group_offsets_.find(group);
  if (group_it == group_offsets_.end()) return -1;
  const auto topic_it = group_it->second.find(tp.topic);
  if (topic_it == group_it->second.end()) return -1;
  const auto part_it = topic_it->second.find(tp.partition);
  if (part_it == topic_it->second.end()) return -1;
  return part_it->second;
}

}  // namespace dsps::kafka
