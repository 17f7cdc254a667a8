#include "flink/kafka_connectors.hpp"

#include <utility>

#include "runtime/fault.hpp"
#include "runtime/invoker.hpp"
#include "runtime/metrics.hpp"

namespace dsps::flink {

namespace {

/// Polls between checkpoint barriers when the source has a coordinator.
constexpr int kCheckpointIntervalPolls = 4;

/// How long one poll waits for records before the loop re-checks for
/// cancellation.
constexpr std::int64_t kPollTimeoutMs = 50;

}  // namespace

void KafkaStringSource::open(const RuntimeContext& context) {
  subtask_index_ = context.subtask_index;
  fault_site_ = "flink.source." + config_.topic;
  consumer_ = std::make_unique<kafka::Consumer>(
      broker_, kafka::ConsumerConfig{.group_id = config_.group_id});
  consumer_
      ->subscribe(config_.topic, config_.bounded,
                  kafka::Shard{.index = context.subtask_index,
                               .count = context.parallelism})
      .expect_ok();
}

void KafkaStringSource::run(SourceContext& context) {
  std::size_t uncommitted = 0;
  try {
    run_loop(context, uncommitted);
  } catch (...) {
    // Everything emitted past the last commit re-reads on the restart.
    if (!config_.group_id.empty() || config_.checkpoint != nullptr) {
      runtime::MetricsRegistry::global()
          .counter("flink.recovery.replayed_records")
          .add(uncommitted);
    }
    throw;
  }
}

void KafkaStringSource::run_loop(SourceContext& context,
                                 std::size_t& uncommitted) {
  runtime::OperatorInvoker invoker(fault_site_);
  int polls_since_barrier = 0;
  kafka::FetchBatch batch;
  while (!context.cancelled()) {
    // A fault here models an operator throw anywhere in this chain: the
    // records of the open epoch have not been checkpointed yet, so the
    // restart replays them from the last committed offset.
    invoker.maybe_fault();
    // One user_fn scope per polled batch; the fetch and the checkpoint nest
    // inside it and count as their own stages.
    runtime::ScopedStage batch_scope(runtime::Stage::kUserFn,
                                     invoker.operator_id());
    const bool closed =
        invoker.broker_rtt([&] {
          return consumer_->poll_batch(kPollTimeoutMs, batch);
        }) == kafka::FetchState::kClosed;
    for (auto& record : batch.records) {
      // Zero-copy hand-off: the Payload shares the broker's storage all the
      // way down the operator chain.
      context.collect(make_elem<kafka::Payload>(std::move(record.value)));
    }
    uncommitted += batch.records.size();
    if (config_.checkpoint != nullptr) {
      if (closed || ++polls_since_barrier >= kCheckpointIntervalPolls) {
        // Epoch boundary: flush this chain's sinks, then commit offsets.
        // Order matters — output must be durable before the input positions
        // that produced it are, or a crash in between loses records.
        invoker.checkpoint([&] {
          config_.checkpoint->barrier(subtask_index_);
          consumer_->commit();
        });
        uncommitted = 0;
        polls_since_barrier = 0;
      }
    } else if (!config_.group_id.empty()) {
      invoker.checkpoint([&] { consumer_->commit(); });
      uncommitted = 0;
    }
    if (closed) return;
  }
  // Cancelled mid-stream: leave the last committed offset as the recovery
  // point (records after it replay on restart — at-least-once).
}

void KafkaStringSink::open(const RuntimeContext& context) {
  producer_ =
      std::make_unique<kafka::Producer>(broker_, kafka::ProducerConfig{});
  partition_ = config_.partition;
  if (partition_ < 0) {
    const auto count = broker_.partition_count(config_.topic);
    count.status().expect_ok();
    partition_ = context.subtask_index % count.value();
  }
  if (config_.checkpoint != nullptr) {
    config_.checkpoint->register_sink(context.subtask_index,
                                      [this] { commit_epoch(); });
  }
}

void KafkaStringSink::invoke(const Elem& element) {
  if (config_.checkpoint != nullptr && config_.transactional) {
    // Transactional mode: hold the epoch back until the barrier commits it.
    pending_.push_back(elem_cast<kafka::Payload>(element));
    return;
  }
  producer_
      ->send(config_.topic, partition_,
             kafka::ProducerRecord{.key = {},
                                   .value = elem_cast<kafka::Payload>(element)})
      .expect_ok();
}

void KafkaStringSink::commit_epoch() {
  for (auto& value : pending_) {
    producer_
        ->send(config_.topic, partition_,
               kafka::ProducerRecord{.key = {}, .value = std::move(value)})
        .expect_ok();
  }
  pending_.clear();
  // The barrier completes only once this epoch's output is durable.
  producer_->flush().expect_ok();
}

void KafkaStringSink::close() {
  // In transactional mode any still-open epoch belongs to the final barrier,
  // which ran before the chain closed; a crash never reaches close() (the
  // exception unwinds past close_chain), so flushing the remainder here is
  // the clean-completion path only.
  if (producer_ != nullptr && config_.checkpoint != nullptr &&
      !pending_.empty()) {
    commit_epoch();
  }
  if (producer_ == nullptr) return;
  // Surface a close failure as a recoverable job failure, not a crash: the
  // producer already retried retryable errors internally; what is left is a
  // genuine broker outage the restart machinery should handle.
  producer_->close().expect_ok();
}

SourceFactory kafka_source(kafka::Broker& broker, KafkaSourceConfig config) {
  return [&broker, config] {
    return std::make_unique<KafkaStringSource>(broker, config);
  };
}

SinkFactory kafka_sink(kafka::Broker& broker, KafkaSinkConfig config) {
  return [&broker, config] {
    return std::make_unique<KafkaStringSink>(broker, config);
  };
}

}  // namespace dsps::flink
