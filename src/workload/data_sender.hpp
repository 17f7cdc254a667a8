// Data sender: benchmark phase 1 (§III-A2, step "Data Ingestion").
//
// Mirrors the paper's Scala data sender: reads the input data and forwards
// it to the message broker as fast as it can (the paper pre-loads the input
// before the run). The benchmark input topic is created with one partition
// and replication factor one so record order is guaranteed.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "kafka/broker.hpp"
#include "kafka/producer.hpp"
#include "runtime/payload.hpp"
#include "workload/aol_generator.hpp"

namespace dsps::workload {

struct DataSenderConfig {
  std::string topic;
};

struct IngestReport {
  std::uint64_t records_sent = 0;
  double duration_ms = 0.0;
};

/// Every value sent is interned into the sender's PayloadArena, so a run
/// of small records shares one 64 KiB chunk instead of taking a heap block
/// each. A stored record keeps its chunk alive after the sender is gone;
/// the chunk is freed with the last record in it.
class DataSender {
 public:
  DataSender(kafka::Broker& broker, DataSenderConfig config);

  /// Streams records straight from the generator (no materialized vector —
  /// supports the full 1,000,001-record paper scale without holding it).
  Result<IngestReport> send_generated(const AolGenerator& generator);

 private:
  kafka::Broker& broker_;
  DataSenderConfig config_;
  runtime::PayloadArena arena_;
};

/// Creates the benchmark topic exactly as the paper does: one partition,
/// replication factor one, LogAppendTime stamping. The `partitions`
/// overload keeps the paper's replication/timestamp setup but fans the
/// topic out for the scale-out sweep.
Status create_benchmark_topic(kafka::Broker& broker, const std::string& name);
Status create_benchmark_topic(kafka::Broker& broker, const std::string& name,
                              int partitions);

}  // namespace dsps::workload
