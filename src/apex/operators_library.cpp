#include "apex/operators_library.hpp"

#include <utility>

namespace dsps::apex {

using runtime::Payload;

namespace {

/// Records one Kafka input poll returns at most.
constexpr std::size_t kMaxPollRecords = 2048;

}  // namespace

KafkaPayloadInput::KafkaPayloadInput(kafka::Broker& broker, std::string topic)
    : KafkaPayloadInput(broker, Config{.topic = std::move(topic)}) {}

KafkaPayloadInput::KafkaPayloadInput(kafka::Broker& broker, Config config)
    : broker_(broker), config_(std::move(config)), out_(register_output()) {}

void KafkaPayloadInput::setup(const OperatorContext& context) {
  consumer_ = std::make_unique<kafka::Consumer>(
      broker_,
      kafka::ConsumerConfig{.group_id = config_.group_id,
                            .max_poll_records = kMaxPollRecords});
  // Partitioned input: each physical instance reads its own slice.
  consumer_
      ->subscribe(config_.topic, config_.bounded,
                  kafka::Shard{.index = context.partition_index,
                               .count = context.partition_count})
      .expect_ok();
}

bool KafkaPayloadInput::emit_tuples(std::size_t budget) {
  std::size_t emitted = 0;
  kafka::FetchBatch batch;
  // Open-loop mode polls with a short timeout instead of 0: when the input
  // is momentarily caught up the operator parks on the broker's fetch
  // condition variable rather than busy-spinning the window loop.
  const std::int64_t timeout_ms = config_.bounded ? 0 : 1;
  while (emitted < budget) {
    const kafka::FetchState state =
        consumer_->poll_batch(emitted == 0 ? timeout_ms : 0, batch);
    for (auto& record : batch.records) {
      // The record's value is already a refcounted slice of the broker's
      // storage; moving it into the tuple copies no bytes.
      emit(out_, make_tuple_of<Payload>(std::move(record.value)));
      ++emitted;
    }
    // kClosed: that was the final batch, stop scheduling this input.
    if (state == kafka::FetchState::kClosed) return false;
    if (batch.empty()) break;
  }
  return true;
}

void KafkaPayloadInput::begin_window(WindowId window) {
  current_window_ = window;
}

void KafkaPayloadInput::end_window() {
  if (config_.group_id.empty()) return;
  // Snapshot the read positions at this window boundary; they become
  // durable only when STRAM reports the window committed across the DAG.
  uncommitted_.push_back(
      WindowOffsets{current_window_, consumer_->positions()});
}

void KafkaPayloadInput::committed(WindowId window) {
  if (config_.group_id.empty()) return;
  // Commit the newest snapshot at or below the committed window, drop all
  // snapshots it supersedes.
  const WindowOffsets* newest = nullptr;
  for (const auto& snapshot : uncommitted_) {
    if (snapshot.window <= window &&
        (newest == nullptr || snapshot.window > newest->window)) {
      newest = &snapshot;
    }
  }
  if (newest == nullptr) return;
  commit_positions(newest->positions);
  std::erase_if(uncommitted_, [window](const WindowOffsets& snapshot) {
    return snapshot.window <= window;
  });
}

void KafkaPayloadInput::commit_positions(
    const std::vector<std::pair<kafka::TopicPartition, std::int64_t>>&
        positions) {
  for (const auto& [tp, offset] : positions) {
    broker_.commit_offset(config_.group_id, tp, offset);
  }
}

KafkaPayloadOutput::KafkaPayloadOutput(kafka::Broker& broker, Config config)
    : broker_(broker),
      config_(std::move(config)),
      in_(register_input([this](const Tuple& tuple) { on_tuple(tuple); })) {}

void KafkaPayloadOutput::setup(const OperatorContext& context) {
  producer_ =
      std::make_unique<kafka::Producer>(broker_, kafka::ProducerConfig{});
  partition_ = config_.partition;
  if (partition_ < 0) {
    const auto count = broker_.partition_count(config_.topic);
    count.status().expect_ok();
    partition_ = context.partition_index % count.value();
  }
}

void KafkaPayloadOutput::on_tuple(const Tuple& tuple) {
  producer_
      ->send(config_.topic, partition_,
             kafka::ProducerRecord{.key = {},
                                   .value = tuple_cast<Payload>(tuple)})
      .expect_ok();
}

void KafkaPayloadOutput::end_window() {
  // Apex output operators typically flush at window boundaries. A flush
  // failure that outlived the producer's internal retries fails this window:
  // the supervisor converts the throw into the Status the recovery machinery
  // retries on.
  if (producer_) producer_->flush().expect_ok();
}

void KafkaPayloadOutput::teardown() {
  // teardown() must not throw — it also runs while the engine is unwinding
  // from another failure, where a second exception would terminate the
  // process. A close that still fails after the producer's retries (e.g. a
  // broker-unavailability window covering shutdown) is reported through
  // close_status() and surfaced by the engine as a retryable app failure.
  if (producer_) close_status_ = producer_->close();
}

FunctionOperator::FunctionOperator(Fn fn)
    : fn_(std::move(fn)),
      in_(register_input([this](const Tuple& tuple) {
        fn_(tuple, [this](Tuple out) { emit(out_, std::move(out)); });
      })),
      out_(register_output()) {}

OperatorFactory kafka_input_factory(kafka::Broker& broker, std::string topic) {
  return [&broker, topic] {
    return std::make_unique<KafkaPayloadInput>(broker, topic);
  };
}

OperatorFactory kafka_input_factory(kafka::Broker& broker,
                                    KafkaPayloadInput::Config config) {
  return [&broker, config] {
    return std::make_unique<KafkaPayloadInput>(broker, config);
  };
}

OperatorFactory kafka_output_factory(kafka::Broker& broker,
                                     KafkaPayloadOutput::Config config) {
  return [&broker, config] {
    return std::make_unique<KafkaPayloadOutput>(broker, config);
  };
}

OperatorFactory map_payload_factory(
    std::function<Payload(const Payload&)> fn) {
  return [fn = std::move(fn)] {
    return std::make_unique<FunctionOperator>(
        [fn](const Tuple& tuple, const std::function<void(Tuple)>& emit) {
          emit(make_tuple_of<Payload>(fn(tuple_cast<Payload>(tuple))));
        });
  };
}

OperatorFactory filter_payload_factory(
    std::function<bool(const Payload&)> predicate) {
  return [predicate = std::move(predicate)] {
    return std::make_unique<FunctionOperator>(
        [predicate](const Tuple& tuple,
                    const std::function<void(Tuple)>& emit) {
          if (predicate(tuple_cast<Payload>(tuple))) emit(tuple);
        });
  };
}

}  // namespace dsps::apex
