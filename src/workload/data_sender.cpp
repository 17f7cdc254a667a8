#include "workload/data_sender.hpp"

#include <string>

#include "common/clock.hpp"

namespace dsps::workload {

DataSender::DataSender(kafka::Broker& broker, DataSenderConfig config)
    : broker_(broker), config_(std::move(config)) {}

Result<IngestReport> DataSender::send_generated(
    const AolGenerator& generator) {
  // Round-robin: a one-partition topic keeps the paper's in-order single
  // log; the scale-out sweep's N partitions fill evenly.
  kafka::Producer producer(
      broker_,
      kafka::ProducerConfig{.partitioner = kafka::Partitioner::kRoundRobin,
                            .batch_size = 1000});
  const std::uint64_t count = generator.config().record_count;
  std::string line;
  Stopwatch watch;
  for (std::uint64_t i = 0; i < count; ++i) {
    generator.line_at(i, line);
    Status sent = producer.send(
        config_.topic,
        kafka::ProducerRecord{.key = {}, .value = arena_.intern(line)});
    if (!sent.is_ok()) return sent;
  }
  if (Status closed = producer.close(); !closed.is_ok()) return closed;
  return IngestReport{.records_sent = count,
                      .duration_ms = watch.elapsed_ms()};
}

Status create_benchmark_topic(kafka::Broker& broker,
                              const std::string& name) {
  return create_benchmark_topic(broker, name, /*partitions=*/1);
}

Status create_benchmark_topic(kafka::Broker& broker, const std::string& name,
                              int partitions) {
  return broker.create_topic(
      name, kafka::TopicConfig{
                .partitions = partitions,
                .replication_factor = 1,
                .timestamp_type = kafka::TimestampType::kLogAppendTime});
}

}  // namespace dsps::workload
