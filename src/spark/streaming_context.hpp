// StreamingContext: owns the batch generator that turns time into batches.
//
// Micro-batch execution (§II-C): every `batch_interval_ms` the generator
// assembles one RDD per input from newly arrived data and runs every
// registered output operation on it, one batch at a time. The benchmark
// runs bounded: run_bounded() keeps generating batches until every input is
// drained and the final batch carried no records.
//
// Batch bookkeeping reports through the unified runtime::MetricsRegistry
// (counters `batch.count` / `input.records`, histogram `batch.duration_us`)
// instead of a Spark-private stats struct; the generator thread runs under
// runtime::TaskRuntime supervision.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "kafka/broker.hpp"
#include "kafka/consumer.hpp"
#include "runtime/metrics.hpp"
#include "runtime/task_runtime.hpp"
#include "spark/dstream.hpp"

namespace dsps::spark {

class StreamingContext {
 public:
  StreamingContext(SparkConf conf, std::int64_t batch_interval_ms);
  ~StreamingContext();

  StreamingContext(const StreamingContext&) = delete;
  StreamingContext& operator=(const StreamingContext&) = delete;

  SparkContext& spark_context() noexcept { return sc_; }
  std::int64_t batch_interval_ms() const noexcept {
    return batch_interval_ms_;
  }

  /// Records the direct stream fetches per broker request: a batch claims
  /// its offset range in chunks of this size through one reused buffer.
  static constexpr std::size_t kDirectFetchRecords = 4096;

  /// Direct Kafka stream (the receiver-less kafka010 style): each batch
  /// reads the offset range that arrived since the previous batch and slices
  /// it into `spark.default.parallelism` partitions. Rows are refcounted
  /// payload slices of the broker's storage — claiming a batch copies no
  /// record bytes. With `until_sealed` (open-loop runs) the input does not
  /// report drained until the topic is sealed — a caught-up position between
  /// generator bursts must not terminate the run.
  DStream<kafka::Payload> kafka_direct_stream(kafka::Broker& broker,
                                              const std::string& topic,
                                              bool until_sealed = false);

  /// Registers an output operation (used by DStream::foreach_rdd).
  void register_output(std::function<void(BatchId, SparkContext&)> op);
  void register_input(std::shared_ptr<InputDStreamBase> input);

  /// Spark's task/stage re-execution, collapsed to the micro-batch level:
  /// a batch whose output operations throw is re-run up to `max_retries`
  /// times against the *same* RDD (the per-BatchId cache pins the claimed
  /// offset range, so a retry reprocesses identical input). Output written
  /// before the failure is written again on retry — at-least-once, exactly
  /// like speculative re-execution against a non-transactional sink.
  void set_batch_retries(int max_retries,
                         runtime::BackoffPolicy backoff = {});
  std::uint64_t batch_retries() const { return batch_retry_count_.value(); }

  /// Starts the timer-driven batch generator.
  Status start();

  /// Graceful stop: halts the generator, then runs one final drain batch so
  /// records that arrived after the last timer batch are delivered too.
  void stop();

  /// Bounded run: generates batches on the interval until all inputs are
  /// drained and the last batch was empty; then returns. Must not be mixed
  /// with start().
  Status run_bounded();

  /// First failure of the supervised generator or of a
  /// batch whose retries were exhausted, if any.
  Status worker_failure() const {
    if (!batch_failure_.is_ok()) return batch_failure_;
    return runtime_.first_failure();
  }

  /// Unified metrics: `batch.count`, `input.records`, `batch.duration_us`,
  /// `batch.last_input_records`.
  runtime::MetricsSnapshot metrics() const { return registry_.snapshot(); }

  std::uint64_t batches_run() const { return batch_count_.value(); }

 private:
  void run_one_batch();
  bool all_inputs_drained() const;
  void publish_metrics();

  SparkConf conf_;
  SparkContext sc_;
  const std::int64_t batch_interval_ms_;
  std::vector<std::function<void(BatchId, SparkContext&)>> outputs_;
  std::vector<std::shared_ptr<InputDStreamBase>> inputs_;
  runtime::MetricsRegistry registry_;
  runtime::Counter batch_count_;
  runtime::Counter input_records_;
  runtime::Counter batch_retry_count_;
  runtime::Counter replayed_records_;
  runtime::Gauge last_batch_gauge_;
  runtime::TimeHistogram batch_duration_;
  int max_batch_retries_ = 0;
  runtime::BackoffPolicy retry_backoff_{};
  Status batch_failure_;
  std::size_t last_batch_input_records_ = 0;
  BatchId next_batch_ = 0;
  std::atomic<bool> stop_requested_{false};
  runtime::TaskRuntime runtime_{"spark-streaming"};
  runtime::TaskRuntime::TaskId generator_task_ = 0;
  bool generator_spawned_ = false;
  bool started_ = false;
  bool metrics_published_ = false;
};

template <typename T>
void DStream<T>::foreach_rdd(
    std::function<void(SparkContext&, const RDDPtr<T>&)> action) const {
  context_->register_output(
      [node = node_, action = std::move(action)](BatchId batch,
                                                 SparkContext& sc) {
        action(sc, node->rdd_for(batch, sc));
      });
}

}  // namespace dsps::spark
