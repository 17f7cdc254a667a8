#include "workload/data_sender.hpp"

#include <string_view>

#include "common/clock.hpp"

namespace dsps::workload {

DataSender::DataSender(kafka::Broker& broker, DataSenderConfig config)
    : broker_(broker), config_(std::move(config)) {}

template <typename LineAt>
Result<IngestReport> DataSender::send_loop(std::uint64_t count,
                                           LineAt&& line_at) {
  // Round-robin: a one-partition topic keeps the paper's in-order single
  // log; the scale-out sweep's N partitions fill evenly.
  kafka::Producer producer(
      broker_,
      kafka::ProducerConfig{.acks = kafka::Acks::kLeader,
                            .partitioner = kafka::Partitioner::kRoundRobin,
                            .batch_size = 1000});
  Stopwatch watch;
  for (std::uint64_t i = 0; i < count; ++i) {
    Status sent = producer.send(
        config_.topic,
        kafka::ProducerRecord{.key = {}, .value = arena_.intern(line_at(i))});
    if (!sent.is_ok()) return sent;
  }
  if (Status closed = producer.close(); !closed.is_ok()) return closed;
  return IngestReport{.records_sent = count,
                      .duration_ms = watch.elapsed_ms()};
}

Result<IngestReport> DataSender::send_lines(
    const std::vector<std::string>& lines) {
  return send_loop(lines.size(), [&lines](std::uint64_t i) {
    return std::string_view(lines[i]);
  });
}

Result<IngestReport> DataSender::send_generated(
    const AolGenerator& generator) {
  std::string line;
  return send_loop(generator.config().record_count,
                   [&generator, &line](std::uint64_t i) {
                     generator.line_at(i, line);
                     return std::string_view(line);
                   });
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
