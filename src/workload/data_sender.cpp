#include "workload/data_sender.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/queue.hpp"
#include "runtime/task_runtime.hpp"

namespace dsps::workload {

namespace {

/// Lines per chunk the helper hands over; also the producer's batch size,
/// so each chunk is one flush.
constexpr std::uint64_t kChunkRecords = 1000;
/// Chunks the helper may run ahead of the sending thread.
constexpr std::size_t kChunksAhead = 4;

}  // namespace

DataSender::DataSender(kafka::Broker& broker, DataSenderConfig config)
    : broker_(broker), config_(std::move(config)) {}

Result<IngestReport> DataSender::send_generated(
    const AolGenerator& generator) {
  // Round-robin: a one-partition topic keeps the paper's in-order single
  // log; the scale-out sweep's N partitions fill evenly.
  kafka::Producer producer(
      broker_,
      kafka::ProducerConfig{.partitioner = kafka::Partitioner::kRoundRobin,
                            .batch_size = kChunkRecords});
  const std::uint64_t count = generator.config().record_count;
  Stopwatch watch;
  // The helper formats and interns one chunk ahead while this thread sends
  // the last one. Only the helper touches arena_ until it is joined.
  BoundedQueue<std::vector<runtime::Payload>> chunks(kChunksAhead);
  runtime::TaskRuntime tasks("data-sender");
  tasks.spawn("data-sender", [&] {
    // Closing on every exit, a throw included, ends the sending loop.
    struct CloseOnExit {
      BoundedQueue<std::vector<runtime::Payload>>& chunks;
      ~CloseOnExit() { chunks.close(); }
    } close_on_exit{chunks};
    std::string line;
    for (std::uint64_t first = 0; first < count; first += kChunkRecords) {
      const std::uint64_t last = std::min(count, first + kChunkRecords);
      std::vector<runtime::Payload> chunk;
      chunk.reserve(last - first);
      for (std::uint64_t i = first; i < last; ++i) {
        generator.line_at(i, line);
        chunk.push_back(arena_.intern(line));
      }
      if (!chunks.push(std::move(chunk))) return;  // a send failed
    }
  });

  Status sent = Status::ok();
  while (sent.is_ok()) {
    std::optional<std::vector<runtime::Payload>> chunk = chunks.pop();
    if (!chunk) break;
    for (runtime::Payload& value : *chunk) {
      sent = producer.send(
          config_.topic,
          kafka::ProducerRecord{.key = {}, .value = std::move(value)});
      if (!sent.is_ok()) break;
    }
  }
  chunks.close();
  if (Status generated = tasks.join_all(); sent.is_ok()) sent = generated;
  if (!sent.is_ok()) return sent;
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
