#include "kafka/partition_log.hpp"

#include <algorithm>
#include <chrono>

namespace dsps::kafka {

namespace {

// Index of `offset` within the retained window, clamped to [start, size].
std::size_t clamp_to_window(std::int64_t offset, std::int64_t log_start,
                            std::size_t size) noexcept {
  if (offset < log_start) return 0;
  const auto index = static_cast<std::size_t>(offset - log_start);
  return std::min(index, size);
}

}  // namespace

Segment SegmentPool::acquire() {
  {
    std::lock_guard lock(mutex_);
    if (!idle_.empty()) {
      Segment segment = std::move(idle_.back());
      idle_.pop_back();
      return segment;
    }
  }
  return std::make_unique<StoredRecord[]>(kSegmentRecords);
}

void SegmentPool::release(Segment segment) {
  std::lock_guard lock(mutex_);
  idle_.push_back(std::move(segment));
}

std::size_t SegmentPool::idle_segments() const {
  std::lock_guard lock(mutex_);
  return idle_.size();
}

PartitionLog::~PartitionLog() {
  pop_front_locked(size_);
  for (Segment& segment : segments_) pool_.release(std::move(segment));
}

std::int64_t PartitionLog::push_back_locked(const ProducerRecord& record,
                                            Timestamp timestamp) {
  if (head_ + size_ == segments_.size() * kSegmentRecords) {
    segments_.push_back(pool_.acquire());
  }
  const std::int64_t offset =
      log_start_offset_ + static_cast<std::int64_t>(size_);
  StoredRecord& stored = at_locked(size_++);
  stored.offset = offset;
  stored.key = record.key;
  stored.value = record.value;
  stored.timestamp = timestamp;
  retained_bytes_ += record_bytes(stored);
  return offset;
}

void PartitionLog::pop_front_locked(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) at_locked(i) = StoredRecord{};
  head_ += count;
  size_ -= count;
  while (head_ >= kSegmentRecords) {
    pool_.release(std::move(segments_.front()));
    segments_.pop_front();
    head_ -= kSegmentRecords;
  }
}

void PartitionLog::copy_out_locked(std::size_t start, std::size_t count,
                                   std::vector<StoredRecord>& out) const {
  std::size_t slot = head_ + start;
  while (count > 0) {
    const StoredRecord* segment = segments_[slot / kSegmentRecords].get();
    const std::size_t first = slot % kSegmentRecords;
    const std::size_t run = std::min(count, kSegmentRecords - first);
    out.insert(out.end(), segment + first, segment + first + run);
    slot += run;
    count -= run;
  }
}

void PartitionLog::maybe_trim_locked() {
  if (retention_.max_bytes <= 0 || retained_bytes_ <= retention_.max_bytes) {
    return;
  }
  // Once the size bound is exceeded, trim down to ~80% of it so a sustained
  // overload trims in batches instead of one record per append.
  const std::int64_t target_bytes = retention_.max_bytes * 4 / 5;
  std::size_t trim = 0;
  std::int64_t bytes = retained_bytes_;
  while (trim < size_ && bytes > target_bytes) {
    bytes -= record_bytes(at_locked(trim));
    ++trim;
  }
  pop_front_locked(trim);
  log_start_offset_ += static_cast<std::int64_t>(trim);
  retained_bytes_ = bytes;
}

std::int64_t PartitionLog::append(const ProducerRecord& record) {
  std::int64_t offset;
  bool wake;
  {
    std::lock_guard lock(mutex_);
    const Timestamp stamp = wall_clock_now();
    offset = push_back_locked(record, stamp);
    maybe_trim_locked();
    wake = fetch_waiters_ > 0;
  }
  if (wake) data_arrived_.notify_all();
  return offset;
}

std::int64_t PartitionLog::append_batch(
    const std::vector<ProducerRecord>& records) {
  if (records.empty()) return end_offset() - 1;
  std::int64_t last_offset = 0;
  bool wake;
  {
    std::lock_guard lock(mutex_);
    // One timestamp per batch arrival, as a broker stamps at append time.
    const Timestamp now = wall_clock_now();
    for (const auto& record : records) {
      last_offset = push_back_locked(record, now);
    }
    maybe_trim_locked();
    wake = fetch_waiters_ > 0;
  }
  if (wake) data_arrived_.notify_all();
  return last_offset;
}

std::size_t PartitionLog::fetch(std::int64_t offset, std::size_t max_records,
                                std::vector<StoredRecord>& out) const {
  std::lock_guard lock(mutex_);
  if (offset < 0) offset = 0;
  const std::size_t start = clamp_to_window(offset, log_start_offset_, size_);
  if (start >= size_) return 0;
  const std::size_t n = std::min(max_records, size_ - start);
  copy_out_locked(start, n, out);
  return n;
}

std::size_t PartitionLog::fetch_blocking(std::int64_t offset,
                                         std::size_t max_records,
                                         std::int64_t timeout_ms,
                                         std::vector<StoredRecord>& out) const {
  std::unique_lock lock(mutex_);
  if (offset < 0) offset = 0;
  std::size_t start = clamp_to_window(offset, log_start_offset_, size_);
  if (start >= size_ && !closed_) {
    ++fetch_waiters_;
    data_arrived_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      start = clamp_to_window(offset, log_start_offset_, size_);
      return start < size_ || closed_;
    });
    --fetch_waiters_;
  }
  start = clamp_to_window(offset, log_start_offset_, size_);
  if (start >= size_) return 0;
  const std::size_t n = std::min(max_records, size_ - start);
  copy_out_locked(start, n, out);
  return n;
}

void PartitionLog::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  data_arrived_.notify_all();
}

bool PartitionLog::closed() const {
  std::lock_guard lock(mutex_);
  return closed_;
}

std::int64_t PartitionLog::end_offset() const {
  std::lock_guard lock(mutex_);
  return log_start_offset_ + static_cast<std::int64_t>(size_);
}

void PartitionLog::set_retention(RetentionConfig config) {
  std::lock_guard lock(mutex_);
  retention_ = config;
  maybe_trim_locked();
}

std::int64_t PartitionLog::retained_bytes() const {
  std::lock_guard lock(mutex_);
  return retained_bytes_;
}

PartitionInfo PartitionLog::info() const {
  std::lock_guard lock(mutex_);
  PartitionInfo info;
  info.record_count = static_cast<std::int64_t>(size_);
  info.log_start_offset = log_start_offset_;
  info.log_end_offset = log_start_offset_ + static_cast<std::int64_t>(size_);
  if (size_ > 0) {
    info.first_timestamp = at_locked(0).timestamp;
    info.last_timestamp = at_locked(size_ - 1).timestamp;
  }
  return info;
}

}  // namespace dsps::kafka
