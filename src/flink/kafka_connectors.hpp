// MiniKafka connectors for Flink-sim (the FlinkKafkaConsumer/Producer
// analogues). The source reads its subtask's partition slice until the
// consumer reports the end of input (kafka::Consumer::subscribe): the end
// offsets recorded at open() when bounded — the benchmark pre-loads the
// input topic, so this matches the paper's measurement window — or the
// sealed, drained topic in open loop.
#pragma once

#include <memory>
#include <string>

#include "flink/checkpoint.hpp"
#include "flink/operators.hpp"
#include "kafka/broker.hpp"
#include "kafka/consumer.hpp"
#include "kafka/producer.hpp"

namespace dsps::flink {

struct KafkaSourceConfig {
  std::string topic;
  /// At-least-once recovery: with a group the source resumes from the
  /// group's committed offsets and commits after every poll. A job
  /// restarted after a crash re-reads at most the uncommitted tail (some
  /// records may be emitted twice — at-least-once, like a Kafka consumer
  /// without transactional sinks). Empty = no group: start at offset 0.
  std::string group_id;
  bool bounded = true;
  /// Barrier-style checkpointing: when set, every kCheckpointIntervalPolls
  /// polls the source runs a barrier (committing its chain's sink epochs via
  /// the coordinator) and then commits its own offsets. Requires the sink of
  /// the same chain to share the coordinator — see KafkaSinkConfig.
  std::shared_ptr<CheckpointCoordinator> checkpoint;
};

/// Emits record values as kafka::Payload elements (refcounted slices of the
/// broker's storage — no copy per record). With parallelism > number of
/// partitions, surplus subtasks emit nothing (Kafka semantics).
class KafkaStringSource final : public SourceFunction {
 public:
  KafkaStringSource(kafka::Broker& broker, KafkaSourceConfig config)
      : broker_(broker), config_(std::move(config)) {}

  void open(const RuntimeContext& context) override;
  void run(SourceContext& context) override;

 private:
  /// The poll loop; `uncommitted` tracks records emitted past the last
  /// offset commit so run() can account the replay a crash here causes.
  void run_loop(SourceContext& context, std::size_t& uncommitted);

  kafka::Broker& broker_;
  KafkaSourceConfig config_;
  std::unique_ptr<kafka::Consumer> consumer_;
  int subtask_index_ = 0;
  std::string fault_site_;  // precomputed: no per-poll allocation
};

struct KafkaSinkConfig {
  std::string topic;
  /// Output partition; -1 = auto (subtask_index modulo the topic's
  /// partition count), so parallel sink subtasks write to disjoint
  /// partition logs instead of serializing on one log mutex.
  int partition = 0;
  /// Barrier participation: when set, the sink registers with the
  /// coordinator so the source's barrier makes its output durable before
  /// offsets are committed (output-before-offsets, the invariant both
  /// recovery modes need).
  std::shared_ptr<CheckpointCoordinator> checkpoint;
  /// With `checkpoint` set: true buffers each epoch and releases it only at
  /// the barrier — a crash discards the open epoch, so replayed input
  /// produces each output exactly once. false writes through and merely
  /// flushes at the barrier — duplicates on replay, at-least-once.
  bool transactional = true;
};

/// Writes kafka::Payload elements as record values.
class KafkaStringSink final : public SinkFunction {
 public:
  KafkaStringSink(kafka::Broker& broker, KafkaSinkConfig config)
      : broker_(broker), config_(std::move(config)) {}

  void open(const RuntimeContext& context) override;
  void invoke(const Elem& element) override;
  void close() override;

 private:
  void commit_epoch();

  kafka::Broker& broker_;
  KafkaSinkConfig config_;
  std::unique_ptr<kafka::Producer> producer_;
  int partition_ = 0;  // resolved at open() (config or auto by subtask)
  std::vector<kafka::Payload> pending_;  // open epoch (transactional mode)
};

/// Factory helpers for the DataStream API.
SourceFactory kafka_source(kafka::Broker& broker, KafkaSourceConfig config);
SinkFactory kafka_sink(kafka::Broker& broker, KafkaSinkConfig config);

}  // namespace dsps::flink
