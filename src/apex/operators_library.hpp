// Malhar-like operator library: Kafka connectors and functional compute
// operators (§II-D: "Apex Malhar ... contains different input/output
// operators and compute operators", including Kafka connectors).
//
// Tuples are runtime::Payload slices: the Kafka input operator adopts the
// broker record's storage without copying, and every THREAD_LOCAL /
// CONTAINER_LOCAL hop moves only the refcounted handle. Bytes are copied
// exactly where Apex copies them — at serialized NODE_LOCAL boundaries
// (see PayloadCodec) and when a compute operator materializes a new value.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apex/operator.hpp"
#include "kafka/broker.hpp"
#include "kafka/consumer.hpp"
#include "kafka/producer.hpp"
#include "runtime/payload.hpp"

namespace dsps::apex {

/// Kafka input: each physical instance reads its partition slice until the
/// consumer reports the end of input (kafka::Consumer::subscribe). Output
/// port 0 emits runtime::Payload tuples sharing the broker's storage.
class KafkaPayloadInput final : public InputOperator {
 public:
  struct Config {
    std::string topic;
    /// Consumer group for offset recovery. When set, the input resumes
    /// from the group's committed offsets at setup and commits offsets as
    /// STRAM's committed-window notifications arrive (committed()), i.e.
    /// only once every deployed group has fully processed the window whose
    /// outputs those offsets produced — at-least-once on relaunch.
    std::string group_id;
    /// true = read the topic as it stood at setup and finish; false =
    /// open-loop mode: stay scheduled until the topic is sealed
    /// (Broker::seal_topic) and the slice is drained.
    bool bounded = true;
  };

  KafkaPayloadInput(kafka::Broker& broker, std::string topic);
  KafkaPayloadInput(kafka::Broker& broker, Config config);

  void setup(const OperatorContext& context) override;
  bool emit_tuples(std::size_t budget) override;
  void begin_window(WindowId window) override;
  void end_window() override;
  /// Offsets become durable ONLY here (never at teardown): committing on
  /// teardown would race a downstream group failing after this input group
  /// completed, making offsets durable for output that never flushed. The
  /// engine fires a final committed() after every group completes cleanly.
  void committed(WindowId window) override;

  int output_port() const noexcept { return out_; }

 private:
  struct WindowOffsets {
    WindowId window = 0;
    std::vector<std::pair<kafka::TopicPartition, std::int64_t>> positions;
  };

  void commit_positions(
      const std::vector<std::pair<kafka::TopicPartition, std::int64_t>>&
          positions);

  kafka::Broker& broker_;
  Config config_;
  int out_;
  std::unique_ptr<kafka::Consumer> consumer_;
  WindowId current_window_ = 0;
  std::vector<WindowOffsets> uncommitted_;  // per closed, not-yet-committed window
};

/// Kafka output batching with the ProducerConfig defaults and flushing at
/// every window end. Input port 0 accepts runtime::Payload tuples.
class KafkaPayloadOutput final : public Operator {
 public:
  struct Config {
    std::string topic;
    /// Output partition; -1 = auto (the instance's partition_index modulo
    /// the topic's partition count) so partitioned outputs write to
    /// disjoint logs.
    int partition = 0;
  };

  KafkaPayloadOutput(kafka::Broker& broker, Config config);

  void setup(const OperatorContext& context) override;
  void end_window() override;
  void teardown() override;
  Status close_status() const override { return close_status_; }

  int input_port() const noexcept { return in_; }

 private:
  void on_tuple(const Tuple& tuple);

  kafka::Broker& broker_;
  Config config_;
  int in_;
  int partition_ = 0;  // resolved at setup() (config or auto by instance)
  std::unique_ptr<kafka::Producer> producer_;
  Status close_status_ = Status::ok();
};

/// Element-wise transform; input port 0, output port 0.
class FunctionOperator final : public Operator {
 public:
  /// fn(tuple, emit): call emit zero or more times.
  using Fn = std::function<void(const Tuple&, const std::function<void(Tuple)>&)>;

  explicit FunctionOperator(Fn fn);

  int input_port() const noexcept { return in_; }
  int output_port() const noexcept { return out_; }

 private:
  Fn fn_;
  int in_;
  int out_;
};

/// Convenience factories.
OperatorFactory kafka_input_factory(kafka::Broker& broker, std::string topic);
OperatorFactory kafka_input_factory(kafka::Broker& broker,
                                    KafkaPayloadInput::Config config);
OperatorFactory kafka_output_factory(kafka::Broker& broker,
                                     KafkaPayloadOutput::Config config);
OperatorFactory map_payload_factory(
    std::function<runtime::Payload(const runtime::Payload&)> fn);
OperatorFactory filter_payload_factory(
    std::function<bool(const runtime::Payload&)> predicate);

}  // namespace dsps::apex
