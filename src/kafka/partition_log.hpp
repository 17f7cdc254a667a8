// One partition's append-only log, stored in fixed-size record segments.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "kafka/record.hpp"

namespace dsps::kafka {

/// Summary of a partition used by admin tooling and the result calculator.
struct PartitionInfo {
  std::int64_t record_count = 0;
  std::int64_t log_start_offset = 0;
  std::int64_t log_end_offset = 0;  // offset the next record will get
  Timestamp first_timestamp = 0;  // 0 when empty
  Timestamp last_timestamp = 0;   // 0 when empty
};

/// Size-based retention (head trimming). Zero means unlimited — the
/// default, so every closed-loop benchmark keeps the full log and the
/// result calculator sees every record. Under sustained load the harness
/// arms the bound so broker memory stays bounded at any offered rate.
struct RetentionConfig {
  std::int64_t max_bytes = 0;  // payload bytes retained per partition
};

/// Record slots per log segment. A log grows and shrinks one whole segment
/// at a time, so an append never reallocates or moves the stored records.
inline constexpr std::size_t kSegmentRecords = 1024;

/// A fixed block of kSegmentRecords record slots.
using Segment = std::unique_ptr<StoredRecord[]>;

/// Recycles segments among the logs of one broker. A segment comes back
/// with every slot reset to an empty record, so an idle segment holds no
/// payload alive; its pages stay resident, so the next topic appends into
/// warm memory instead of faulting in fresh pages. Thread-safe.
class SegmentPool {
 public:
  SegmentPool() = default;
  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  /// An idle segment, or a new one when none is idle.
  Segment acquire();

  /// Takes back a segment whose slots are all empty records.
  void release(Segment segment);

  /// Segments waiting for reuse.
  std::size_t idle_segments() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Segment> idle_;
};

/// Thread-safe append-only record log with blocking fetch.
///
/// With retention armed the head of the log is trimmed on append; offsets
/// are stable (a record keeps the offset it was assigned), so the first
/// retained offset — the *log start offset* — moves forward and fetches
/// below it are out of range (the consumer resets to the log start, as a
/// real client's auto.offset.reset=earliest does).
///
/// Records live in segments drawn from `pool`, which must outlive the log.
/// A trim resets the trimmed records at once (dropping their payload
/// references) and returns every emptied segment to the pool; destroying
/// the log returns all of its segments.
class PartitionLog {
 public:
  explicit PartitionLog(SegmentPool& pool) : pool_(pool) {}
  ~PartitionLog();

  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  /// Appends one record, stamping it with the append wall-clock time.
  /// Returns the assigned offset.
  std::int64_t append(const ProducerRecord& record);

  /// Appends a batch under one lock acquisition (producer batching makes a
  /// real throughput difference, which the ablation bench measures).
  std::int64_t append_batch(const std::vector<ProducerRecord>& records);

  /// Copies up to `max_records` records starting at `offset` into `out`.
  /// Returns the number of records copied (0 when `offset` is at the end).
  /// `offset` below the log start is clamped to the log start — a caller
  /// that must distinguish a trimmed head compares the first record's offset
  /// with the one it asked for (Consumer does, and surfaces
  /// FetchState::kOutOfRange).
  std::size_t fetch(std::int64_t offset, std::size_t max_records,
                    std::vector<StoredRecord>& out) const;

  /// Like fetch(), but blocks up to `timeout_ms` for data to arrive. A
  /// close() cuts the wait short and returns whatever is available.
  std::size_t fetch_blocking(std::int64_t offset, std::size_t max_records,
                             std::int64_t timeout_ms,
                             std::vector<StoredRecord>& out) const;

  /// Marks the log closed and wakes every blocked fetcher, so a consumer
  /// polling a broker that is mid-shutdown gets its partial batch now
  /// instead of sleeping out the full fetch timeout. Appends and fetches
  /// of already-stored records still work (drain semantics).
  void close();
  bool closed() const;

  std::int64_t end_offset() const;

  /// Installs (or clears, with a zero config) the retention bound and
  /// trims immediately.
  void set_retention(RetentionConfig config);

  /// Payload bytes currently retained (keys + values).
  std::int64_t retained_bytes() const;

  PartitionInfo info() const;

 private:
  static std::int64_t record_bytes(const StoredRecord& record) noexcept {
    return static_cast<std::int64_t>(record.key.size() + record.value.size());
  }

  /// The record at `index` within the retained window (0 = log start).
  /// Caller holds mutex_.
  StoredRecord& at_locked(std::size_t index) noexcept {
    const std::size_t slot = head_ + index;
    return segments_[slot / kSegmentRecords][slot % kSegmentRecords];
  }
  const StoredRecord& at_locked(std::size_t index) const noexcept {
    const std::size_t slot = head_ + index;
    return segments_[slot / kSegmentRecords][slot % kSegmentRecords];
  }

  /// Stores `record` with `timestamp` at the tail, taking a segment from the
  /// pool when the last one is full. Returns its offset. Caller holds mutex_.
  std::int64_t push_back_locked(const ProducerRecord& record,
                                Timestamp timestamp);

  /// Resets the `count` oldest records and returns every emptied segment to
  /// the pool. Caller holds mutex_.
  void pop_front_locked(std::size_t count);

  /// Appends `count` records from window index `start` to `out`. Caller
  /// holds mutex_.
  void copy_out_locked(std::size_t start, std::size_t count,
                       std::vector<StoredRecord>& out) const;

  /// Trims the head once the retention bound is exceeded, down to ~80% of
  /// max_bytes, so a sustained overload trims in batches that free whole
  /// segments rather than one record per append. Caller holds mutex_.
  void maybe_trim_locked();

  SegmentPool& pool_;
  mutable std::mutex mutex_;
  mutable std::condition_variable data_arrived_;
  mutable int fetch_waiters_ = 0;  // appenders notify only when someone waits
  bool closed_ = false;
  RetentionConfig retention_;
  std::int64_t log_start_offset_ = 0;  // offset of at_locked(0)
  std::int64_t retained_bytes_ = 0;
  std::deque<Segment> segments_;
  std::size_t head_ = 0;  // slot of the log start in segments_.front()
  std::size_t size_ = 0;  // retained records
};

}  // namespace dsps::kafka
