// Record types for MiniKafka, the in-process message broker.
//
// MiniKafka reproduces the Kafka semantics the paper's benchmark methodology
// rests on: per-partition append-only logs with monotonically increasing
// offsets, order guaranteed only within a partition, and LogAppendTime
// stamping (the timestamp the broker assigns when a record is appended is
// stored with the record — §III-A3 uses exactly these timestamps to compute
// execution times system-independently).
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.hpp"
#include "runtime/payload.hpp"

namespace dsps::kafka {

/// Record keys/values are refcounted immutable slices: appending to the log,
/// replicating, and fetching a batch all share storage instead of copying.
using Payload = runtime::Payload;

/// How a partition stamps record timestamps: always with the broker's
/// append wall-clock time, which the paper's execution-time metric reads off
/// the output topic. The one value stays nameable so topic configs can
/// state it.
enum class TimestampType {
  kLogAppendTime,
};

/// What a producer sends.
struct ProducerRecord {
  Payload key;
  Payload value;
};

/// What the log stores and consumers receive.
struct StoredRecord {
  std::int64_t offset = 0;
  Payload key;
  Payload value;
  Timestamp timestamp = 0;  // LogAppendTime
};

/// Identifies one partition of one topic.
struct TopicPartition {
  std::string topic;
  int partition = 0;

  friend bool operator==(const TopicPartition&,
                         const TopicPartition&) = default;
};

}  // namespace dsps::kafka
