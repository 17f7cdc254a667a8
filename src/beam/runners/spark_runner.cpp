#include "beam/runners/spark_runner.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "beam/fusion.hpp"
#include "common/clock.hpp"
#include "spark/streaming_context.hpp"

namespace dsps::beam {

namespace {

/// Beam source as a Spark input DStream. Bounded sources drain their
/// readers (one per parallelism shard) in the first batch; later batches
/// are empty. Unbounded sources keep persistent readers and each batch
/// claims whatever arrived since the last one (advance_now), ending the
/// claim at kIdle — a direct-stream-style micro-batch over a live topic.
class BeamSourceDStreamNode final : public spark::DStreamNode<Element>,
                                    public spark::InputDStreamBase {
 public:
  /// Per-shard records one micro-batch may claim from an unbounded reader.
  /// Caps batch size when the generator outruns the pipeline: the claim
  /// loop would otherwise never hit kIdle and the batch would never end.
  static constexpr std::size_t kMaxClaimPerShard = 65536;

  BeamSourceDStreamNode(ReaderFactory factory, int parallelism,
                        bool unbounded)
      : factory_(std::move(factory)),
        parallelism_(parallelism),
        unbounded_(unbounded) {}

  ~BeamSourceDStreamNode() override {
    for (auto& reader : readers_) {
      if (reader) reader->close();
    }
  }

  spark::RDDPtr<Element> rdd_for(spark::BatchId batch,
                                 spark::SparkContext& /*sc*/) override {
    std::lock_guard lock(mutex_);
    if (batch == cached_batch_ && cached_) return cached_;
    std::vector<std::vector<Element>> shards(
        static_cast<std::size_t>(parallelism_));
    if (unbounded_) {
      claim_increment_locked(shards);
    } else if (!exhausted_) {
      for (int shard = 0; shard < parallelism_; ++shard) {
        auto reader = factory_(shard, parallelism_);
        reader->open();
        shards[static_cast<std::size_t>(shard)] = read_bounded_shard(*reader);
        reader->close();
      }
      exhausted_ = true;  // bounded readers are one-shot
    }
    std::size_t total = 0;
    for (const auto& shard : shards) total += shard.size();
    last_batch_records_ = total;
    cached_ =
        std::make_shared<spark::ParallelCollectionRDD<Element>>(
            std::move(shards));
    cached_batch_ = batch;
    return cached_;
  }

  bool drained() const override {
    std::lock_guard lock(mutex_);
    return exhausted_;
  }
  std::size_t last_batch_records() const override {
    std::lock_guard lock(mutex_);
    return last_batch_records_;
  }

 private:
  void claim_increment_locked(std::vector<std::vector<Element>>& shards) {
    if (exhausted_) return;
    if (readers_.empty()) {
      readers_.resize(static_cast<std::size_t>(parallelism_));
      for (int shard = 0; shard < parallelism_; ++shard) {
        readers_[static_cast<std::size_t>(shard)] =
            factory_(shard, parallelism_);
        readers_[static_cast<std::size_t>(shard)]->open();
      }
    }
    bool all_done = true;
    for (std::size_t shard = 0; shard < readers_.size(); ++shard) {
      auto& reader = readers_[shard];
      if (!reader) continue;
      auto& out = shards[shard];
      while (out.size() < kMaxClaimPerShard) {
        Element element;
        const ReadNow state = reader->advance_now(element);
        if (state == ReadNow::kRecord) {
          out.push_back(std::move(element));
          continue;
        }
        if (state == ReadNow::kDone) {
          reader->close();
          reader.reset();
        }
        break;
      }
      if (reader) all_done = false;
    }
    exhausted_ = all_done;
  }

  ReaderFactory factory_;
  int parallelism_;
  const bool unbounded_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SourceReader>> readers_;  // unbounded only
  bool exhausted_ = false;
  std::size_t last_batch_records_ = 0;
  spark::BatchId cached_batch_ = -1;
  spark::RDDPtr<Element> cached_;
};

/// Unions several parent streams batch-wise (the Flatten translation).
class UnionDStreamNode final : public spark::DStreamNode<Element> {
 public:
  explicit UnionDStreamNode(
      std::vector<std::shared_ptr<spark::DStreamNode<Element>>> parents)
      : parents_(std::move(parents)) {}

  spark::RDDPtr<Element> rdd_for(spark::BatchId batch,
                                 spark::SparkContext& sc) override {
    std::lock_guard lock(mutex_);
    if (batch == cached_batch_ && cached_) return cached_;
    std::vector<spark::RDDPtr<Element>> rdds;
    rdds.reserve(parents_.size());
    for (const auto& parent : parents_) {
      rdds.push_back(parent->rdd_for(batch, sc));
    }
    cached_ = std::make_shared<spark::UnionRDD<Element>>(std::move(rdds));
    cached_batch_ = batch;
    return cached_;
  }

 private:
  std::vector<std::shared_ptr<spark::DStreamNode<Element>>> parents_;
  std::mutex mutex_;
  spark::BatchId cached_batch_ = -1;
  spark::RDDPtr<Element> cached_;
};

/// Lazy stage iterator: pulls input elements through the stage executor one
/// at a time (pipelined, like a real Spark task), ending bundles every
/// `bundle_size` elements and finishing the executor at end of input.
class StageIterator final : public spark::Iterator<Element> {
 public:
  StageIterator(const StageFactory& factory, spark::IterPtr<Element> in,
                std::size_t bundle_size)
      : executor_(factory()),
        in_(std::move(in)),
        bundle_size_(bundle_size) {
    executor_->start();
  }

  std::optional<Element> next() override {
    const Emit emit = [this](Element&& produced) {
      buffer_.push_back(std::move(produced));
    };
    while (buffer_index_ >= buffer_.size()) {
      buffer_.clear();
      buffer_index_ = 0;
      if (auto element = in_->next()) {
        executor_->process(*element, emit);
        if (++since_bundle_ >= bundle_size_) {
          since_bundle_ = 0;
          executor_->bundle_boundary(emit);
        }
        continue;
      }
      if (!finished_) {
        executor_->finish(emit);
        finished_ = true;
        continue;
      }
      return std::nullopt;
    }
    return std::move(buffer_[buffer_index_++]);
  }

 private:
  std::unique_ptr<StageExecutor> executor_;
  spark::IterPtr<Element> in_;
  std::size_t bundle_size_;
  std::vector<Element> buffer_;
  std::size_t buffer_index_ = 0;
  std::size_t since_bundle_ = 0;
  bool finished_ = false;
};

}  // namespace

std::vector<Element> read_bounded_shard(SourceReader& reader) {
  std::vector<Element> shard;
  shard.reserve(reader.size_hint());
  Element element;
  while (reader.advance(element)) {
    shard.push_back(std::move(element));
    element = Element{};
  }
  return shard;
}

Result<PipelineResult> SparkRunner::run(const Pipeline& pipeline) {
  if (pipeline.graph().nodes().empty()) {
    return Status::failed_precondition("empty pipeline");
  }
  const BeamGraph graph = options_.fuse_stages
                              ? fuse_graph(pipeline.graph()).graph
                              : pipeline.graph();
  if (graph.contains_stateful()) {
    // Beam 2.3's Spark runner capability matrix: no stateful processing.
    return Status::unsupported(
        "the Spark runner does not support stateful ParDo "
        "(see the Beam capability matrix; the paper excluded stateful "
        "queries for this reason)");
  }

  spark::SparkConf conf;
  conf.app_name = "beam-spark-job";
  conf.default_parallelism = options_.parallelism;
  spark::StreamingContext ssc(conf, options_.batch_interval_ms);
  // The restart hint maps onto Spark's native mechanism: per-batch retry
  // against the same cached RDD.
  ssc.set_batch_retries(std::max(0, options_.restart.max_restarts),
                        options_.restart.backoff);

  // Translate nodes to DStreams.
  std::map<int, spark::DStream<Element>> translated;
  std::vector<std::shared_ptr<std::atomic<std::uint64_t>>> counters;
  for (const auto& node : graph.nodes()) {
    counters.push_back(std::make_shared<std::atomic<std::uint64_t>>(0));
    auto counter = counters.back();
    // Per-transform parallelism: the node's hint wins over the pipeline
    // default (Beam's way to express engine-native scaling per transform).
    const int node_parallelism =
        node.parallelism_hint > 0 ? node.parallelism_hint
                                  : options_.parallelism;
    if (node.kind == TransformKind::kRead) {
      auto source = std::make_shared<BeamSourceDStreamNode>(
          node.reader, node_parallelism, node.unbounded_source);
      ssc.register_input(source);
      spark::DStream<Element> stream(&ssc, source);
      if (node_parallelism > 1) {
        // Bundle redistribution after the source: costs a shuffle per batch.
        translated.emplace(node.id, stream.repartition(node_parallelism));
      } else {
        // P1: the source already yields exactly one shard — a repartition
        // here would shuffle every record into the same single split.
        translated.emplace(node.id, stream);
      }
      continue;
    }

    require(!node.inputs.empty(), "non-source node without inputs");
    spark::DStream<Element> input = translated.at(node.inputs.front());
    if (node.inputs.size() > 1) {
      // Flatten: union the parent streams batch-wise.
      std::vector<std::shared_ptr<spark::DStreamNode<Element>>> parents;
      parents.reserve(node.inputs.size());
      for (const int parent : node.inputs) {
        parents.push_back(translated.at(parent).node());
      }
      input = spark::DStream<Element>(
          &ssc, std::make_shared<UnionDStreamNode>(std::move(parents)));
    }

    if (node.key_hash) {
      input = input.transform<Element>(
          [hash = node.key_hash,
           parallelism = node_parallelism](
              spark::RDDPtr<Element> rdd) -> spark::RDDPtr<Element> {
            return std::make_shared<spark::KeyPartitionRDD<Element>>(
                std::move(rdd), hash, parallelism);
          });
    }
    translated.emplace(
        node.id,
        input.map_partitions<Element>(
            [factory = node.stage, counter](
                spark::IterPtr<Element> in) -> spark::IterPtr<Element> {
              class CountingIter final : public spark::Iterator<Element> {
               public:
                CountingIter(spark::IterPtr<Element> in,
                             std::atomic<std::uint64_t>* counter)
                    : in_(std::move(in)), counter_(counter) {}
                std::optional<Element> next() override {
                  auto element = in_->next();
                  if (element) {
                    counter_->fetch_add(1, std::memory_order_relaxed);
                  }
                  return element;
                }

               private:
                spark::IterPtr<Element> in_;
                std::atomic<std::uint64_t>* counter_;
              };
              return std::make_unique<StageIterator>(
                  factory,
                  std::make_unique<CountingIter>(std::move(in),
                                                 counter.get()),
                  /*bundle_size=*/1000);
            }));
  }

  // Terminal nodes (no consumers) become output operations.
  bool has_output = false;
  for (const auto& node : graph.nodes()) {
    if (!graph.consumers_of(node.id).empty()) continue;
    has_output = true;
    translated.at(node.id).foreach_rdd(
        [](spark::SparkContext& sc, const spark::RDDPtr<Element>& rdd) {
          // Force evaluation of the whole lineage for this batch.
          sc.run_job<Element>(rdd, [](int, spark::IterPtr<Element> iter) {
            while (iter->next()) {
            }
          });
        });
  }
  if (!has_output) {
    return Status::failed_precondition("pipeline has no terminal transform");
  }

  Stopwatch watch;
  if (Status s = ssc.run_bounded(); !s.is_ok()) return s;

  PipelineResult result;
  result.state = PipelineState::kDone;
  result.duration_ms = watch.elapsed_ms();
  const auto& nodes = graph.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    result.elements_in[nodes[i].name] = counters[i]->load();
  }
  return result;
}

}  // namespace dsps::beam
