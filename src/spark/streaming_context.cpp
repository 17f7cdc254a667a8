#include "spark/streaming_context.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/clock.hpp"
#include "runtime/fault.hpp"
#include "runtime/invoker.hpp"

namespace dsps::spark {

namespace {

using kafka::Payload;

/// Receiver-less Kafka input: per batch, claims [position, end) of every
/// partition of the topic and slices the claimed records into
/// `parallelism` RDD partitions.
class KafkaDirectInputDStream final : public DStreamNode<Payload>,
                                      public InputDStreamBase {
 public:
  KafkaDirectInputDStream(kafka::Broker& broker, std::string topic,
                          int parallelism, bool until_sealed)
      : broker_(broker),
        topic_(std::move(topic)),
        parallelism_(parallelism),
        until_sealed_(until_sealed) {}

  RDDPtr<Payload> rdd_for(BatchId batch, SparkContext& sc) override {
    std::lock_guard lock(mutex_);
    if (batch == cached_batch_ && cached_) return cached_;

    std::vector<Payload> claimed;
    // The whole claim loop is broker time: offset range lookups plus the
    // fetches that pull the batch's records out of the log.
    runtime::ScopedStage fetch_stage(runtime::Stage::kBrokerRtt);
    const auto partitions = broker_.partition_count(topic_);
    if (partitions.is_ok()) {
      positions_.resize(static_cast<std::size_t>(partitions.value()), 0);
      // Size the claim buffer up front; each partition contributes one
      // contiguous fetched range.
      std::size_t expected = 0;
      for (int p = 0; p < partitions.value(); ++p) {
        const auto end = broker_.end_offset({topic_, p});
        if (!end.is_ok()) continue;
        const auto position = positions_[static_cast<std::size_t>(p)];
        if (end.value() > position) {
          expected += static_cast<std::size_t>(end.value() - position);
        }
      }
      claimed.reserve(expected);
      for (int p = 0; p < partitions.value(); ++p) {
        const kafka::TopicPartition tp{topic_, p};
        const auto end = broker_.end_offset(tp);
        if (!end.is_ok()) continue;
        auto& position = positions_[static_cast<std::size_t>(p)];
        while (position < end.value()) {
          const auto n = broker_.fetch(
              tp, position,
              std::min(StreamingContext::kDirectFetchRecords,
                       static_cast<std::size_t>(end.value() - position)),
              fetched_);
          if (!n.is_ok() || n.value() == 0) break;
          for (auto& record : fetched_) {
            // The row shares the broker's storage — no copy per record.
            claimed.push_back(std::move(record.value));
          }
          fetched_.clear();
          position += static_cast<std::int64_t>(n.value());
        }
      }
    }
    last_batch_records_ = claimed.size();
    cached_ = sc.parallelize(std::move(claimed), parallelism_);
    cached_batch_ = batch;
    return cached_;
  }

  bool drained() const override {
    // Open-loop mode: a caught-up position is only *transiently* drained
    // while the generator is still appending (e.g. between bursts) — the
    // input counts as drained only once the topic is sealed.
    if (until_sealed_ && !broker_.topic_sealed(topic_)) return false;
    std::lock_guard lock(mutex_);
    const auto partitions = broker_.partition_count(topic_);
    if (!partitions.is_ok()) return true;
    for (int p = 0; p < partitions.value(); ++p) {
      const auto end = broker_.end_offset({topic_, p});
      if (!end.is_ok()) continue;
      const std::int64_t position =
          static_cast<std::size_t>(p) < positions_.size()
              ? positions_[static_cast<std::size_t>(p)]
              : 0;
      if (position < end.value()) return false;
    }
    return true;
  }

  std::size_t last_batch_records() const override {
    std::lock_guard lock(mutex_);
    return last_batch_records_;
  }

 private:
  kafka::Broker& broker_;
  const std::string topic_;
  const int parallelism_;
  const bool until_sealed_;
  mutable std::mutex mutex_;
  std::vector<std::int64_t> positions_;
  // One fetch chunk, reused by every batch; empty between fetches.
  std::vector<kafka::StoredRecord> fetched_;
  std::size_t last_batch_records_ = 0;
  BatchId cached_batch_ = -1;
  RDDPtr<Payload> cached_;
};

}  // namespace

StreamingContext::StreamingContext(SparkConf conf,
                                   std::int64_t batch_interval_ms)
    : conf_(conf), sc_(conf), batch_interval_ms_(batch_interval_ms) {
  require(batch_interval_ms >= 1, "batch interval must be >= 1 ms");
  batch_count_ = registry_.counter("batch.count");
  input_records_ = registry_.counter("input.records");
  batch_retry_count_ = registry_.counter("recovery.batch_retries");
  replayed_records_ = registry_.counter("recovery.replayed_records");
  last_batch_gauge_ = registry_.gauge("batch.last_input_records");
  batch_duration_ = registry_.histogram("batch.duration_us");
}

void StreamingContext::set_batch_retries(int max_retries,
                                         runtime::BackoffPolicy backoff) {
  require(!started_, "cannot change retry policy after start()");
  max_batch_retries_ = max_retries;
  retry_backoff_ = backoff;
}

StreamingContext::~StreamingContext() { stop(); }

DStream<Payload> StreamingContext::kafka_direct_stream(
    kafka::Broker& broker, const std::string& topic, bool until_sealed) {
  auto node = std::make_shared<KafkaDirectInputDStream>(
      broker, topic, conf_.default_parallelism, until_sealed);
  register_input(node);
  return DStream<Payload>(this, node);
}

void StreamingContext::register_output(
    std::function<void(BatchId, SparkContext&)> op) {
  require(!started_, "cannot add outputs after start()");
  outputs_.push_back(std::move(op));
}

void StreamingContext::register_input(
    std::shared_ptr<InputDStreamBase> input) {
  require(!started_, "cannot add inputs after start()");
  inputs_.push_back(std::move(input));
}

void StreamingContext::run_one_batch() {
  const BatchId batch = next_batch_++;
  Stopwatch watch;
  std::size_t input_records = 0;
  // Failed output operations re-run against the same BatchId: the input's
  // per-batch RDD cache pins the claimed offset range, so each retry
  // reprocesses exactly the records of the failed attempt (at-least-once —
  // output already produced before the failure is produced again).
  runtime::OperatorInvoker invoker("spark.batch");
  runtime::Backoff backoff(retry_backoff_);
  for (int attempt = 0;; ++attempt) {
    try {
      for (const auto& output : outputs_) output(batch, sc_);
      // Strikes after the outputs ran but before the batch is committed —
      // the worst case for at-least-once: the retry replays the cached
      // RDD and re-emits records the failed attempt already produced.
      invoker.maybe_fault();
      break;
    } catch (...) {
      if (attempt >= max_batch_retries_) throw;
      batch_retry_count_.add(1);
      std::size_t replayed = 0;
      for (const auto& input : inputs_) {
        replayed += input->last_batch_records();
      }
      replayed_records_.add(replayed);
      backoff.sleep();
    }
  }
  for (const auto& input : inputs_) input_records += input->last_batch_records();
  last_batch_input_records_ = input_records;
  batch_count_.add(1);
  input_records_.add(input_records);
  last_batch_gauge_.set(static_cast<double>(input_records));
  batch_duration_.record_us(static_cast<std::uint64_t>(watch.elapsed_us()));
}

bool StreamingContext::all_inputs_drained() const {
  for (const auto& input : inputs_) {
    if (!input->drained()) return false;
  }
  return true;
}

void StreamingContext::publish_metrics() {
  if (metrics_published_) return;
  metrics_published_ = true;
  // Plan-shape evidence: how many shuffles the job's lineage materialized
  // (a P1 pipeline with no wide dependency must report 0).
  registry_.counter("shuffles_run").add(sc_.shuffles_run());
  runtime::MetricsRegistry::global().merge(registry_.snapshot(), "spark.");
}

Status StreamingContext::start() {
  if (started_) return Status::failed_precondition("already started");
  if (outputs_.empty()) {
    return Status::failed_precondition("no output operations registered");
  }
  started_ = true;
  generator_spawned_ = true;
  generator_task_ = runtime_.spawn("spark-gen", [this] {
    while (!stop_requested_.load()) {
      const Stopwatch watch;
      run_one_batch();
      const auto spent_ms = static_cast<std::int64_t>(watch.elapsed_ms());
      const std::int64_t wait_ms = batch_interval_ms_ - spent_ms;
      if (wait_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
      }
    }
    runtime::Profiler::instance().flush_this_thread();
  });
  return Status::ok();
}

void StreamingContext::stop() {
  stop_requested_.store(true);
  runtime_.request_stop();
  if (generator_spawned_) {
    runtime_.wait(generator_task_);
    generator_spawned_ = false;
    // Graceful drain: one final batch delivers what arrived between the
    // last timer batch and the stop request.
    if (runtime_.first_failure().is_ok() && batch_failure_.is_ok()) {
      try {
        run_one_batch();
      } catch (const std::exception& error) {
        batch_failure_ = Status::internal(
            std::string("drain batch failed after retries: ") + error.what());
      } catch (...) {
        batch_failure_ = Status::internal("drain batch failed after retries");
      }
    }
    publish_metrics();
  }
}

Status StreamingContext::run_bounded() {
  if (started_) {
    return Status::failed_precondition("run_bounded after start()");
  }
  if (outputs_.empty()) {
    return Status::failed_precondition("no output operations registered");
  }
  started_ = true;
  while (true) {
    const Stopwatch watch;
    try {
      run_one_batch();
    } catch (const std::exception& error) {
      batch_failure_ = Status::internal(
          std::string("batch failed after retries: ") + error.what());
      started_ = false;
      publish_metrics();
      return batch_failure_;
    } catch (...) {
      batch_failure_ = Status::internal("batch failed after retries");
      started_ = false;
      publish_metrics();
      return batch_failure_;
    }
    const bool empty_batch = last_batch_input_records_ == 0;
    if (empty_batch && all_inputs_drained()) break;
    const auto spent_ms = static_cast<std::int64_t>(watch.elapsed_ms());
    const std::int64_t wait_ms = batch_interval_ms_ - spent_ms;
    if (wait_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    }
  }
  started_ = false;
  runtime::Profiler::instance().flush_this_thread();
  publish_metrics();
  return Status::ok();
}

}  // namespace dsps::spark
