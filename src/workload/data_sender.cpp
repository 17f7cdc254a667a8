#include "workload/data_sender.hpp"

#include <chrono>
#include <string_view>
#include <thread>

#include "common/clock.hpp"

namespace dsps::workload {

DataSender::DataSender(kafka::Broker& broker, DataSenderConfig config)
    : broker_(broker), config_(std::move(config)) {}

template <typename LineAt>
Result<IngestReport> DataSender::send_loop(std::uint64_t count,
                                           LineAt&& line_at) {
  kafka::Producer producer(
      broker_, kafka::ProducerConfig{.acks = config_.acks,
                                     .partitioner = config_.partitioner,
                                     .batch_size =
                                         config_.producer_batch_size});
  Stopwatch watch;
  const double per_record_us =
      config_.ingestion_rate == 0
          ? 0.0
          : 1e6 / static_cast<double>(config_.ingestion_rate);
  for (std::uint64_t i = 0; i < count; ++i) {
    // Partitioner-driven (keyless -> round-robin): a one-partition topic
    // keeps the paper's in-order single log; N partitions spread evenly.
    Status sent = producer.send(
        config_.topic,
        kafka::ProducerRecord{.key = {}, .value = arena_.intern(line_at(i))});
    if (!sent.is_ok()) return sent;
    if (per_record_us > 0.0) {
      const auto target_us =
          static_cast<std::int64_t>(per_record_us * static_cast<double>(i + 1));
      const std::int64_t ahead_us = target_us - watch.elapsed_us();
      if (ahead_us > 1000) {
        std::this_thread::sleep_for(std::chrono::microseconds(ahead_us));
      }
    }
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
