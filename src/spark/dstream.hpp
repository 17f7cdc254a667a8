// Discretized streams: a DStream is a sequence of RDDs, one per batch
// interval (§II-C). Transformations build a per-batch RDD lineage; output
// operations register actions the batch generator runs for every interval.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "spark/spark_context.hpp"

namespace dsps::spark {

using BatchId = std::int64_t;

/// Untyped handle so StreamingContext can track inputs without T.
class InputDStreamBase {
 public:
  virtual ~InputDStreamBase() = default;
  /// True once the bounded input is fully consumed.
  virtual bool drained() const = 0;
  /// Records contributed to the most recent batch.
  virtual std::size_t last_batch_records() const = 0;
};

template <typename T>
class DStreamNode {
 public:
  virtual ~DStreamNode() = default;
  /// Returns this stream's RDD for the batch (memoized per batch id, so
  /// multiple output ops share one lineage).
  virtual RDDPtr<T> rdd_for(BatchId batch, SparkContext& context) = 0;
};

template <typename T, typename R>
class TransformedDStreamNode final : public DStreamNode<R> {
 public:
  TransformedDStreamNode(std::shared_ptr<DStreamNode<T>> parent,
                         std::function<RDDPtr<R>(RDDPtr<T>)> transform)
      : parent_(std::move(parent)), transform_(std::move(transform)) {}

  RDDPtr<R> rdd_for(BatchId batch, SparkContext& context) override {
    std::lock_guard lock(mutex_);
    if (batch == cached_batch_ && cached_) return cached_;
    cached_ = transform_(parent_->rdd_for(batch, context));
    cached_batch_ = batch;
    return cached_;
  }

 private:
  std::shared_ptr<DStreamNode<T>> parent_;
  std::function<RDDPtr<R>(RDDPtr<T>)> transform_;
  std::mutex mutex_;
  BatchId cached_batch_ = -1;
  RDDPtr<R> cached_;
};

class StreamingContext;

/// Typed user-facing stream handle.
template <typename T>
class DStream {
 public:
  DStream(StreamingContext* context, std::shared_ptr<DStreamNode<T>> node)
      : context_(context), node_(std::move(node)) {}

  template <typename R>
  DStream<R> map(std::function<R(const T&)> fn) const {
    return derive<R>([fn = std::move(fn)](RDDPtr<T> rdd) -> RDDPtr<R> {
      return std::make_shared<MapRDD<T, R>>(std::move(rdd), fn);
    });
  }

  DStream<T> filter(std::function<bool(const T&)> predicate) const {
    return derive<T>(
        [predicate = std::move(predicate)](RDDPtr<T> rdd) -> RDDPtr<T> {
          return std::make_shared<FilterRDD<T>>(std::move(rdd), predicate);
        });
  }

  /// Iterator-in / iterator-out partition transformation (lazy).
  template <typename R>
  DStream<R> map_partitions(
      std::function<IterPtr<R>(IterPtr<T>)> fn) const {
    return derive<R>([fn = std::move(fn)](RDDPtr<T> rdd) -> RDDPtr<R> {
      return std::make_shared<MapPartitionsRDD<T, R>>(std::move(rdd), fn);
    });
  }

  DStream<T> repartition(int partitions) const {
    return derive<T>([partitions](RDDPtr<T> rdd) -> RDDPtr<T> {
      return std::make_shared<RepartitionRDD<T>>(std::move(rdd), partitions);
    });
  }

  /// Registers an output operation; defined in streaming_context.hpp.
  void foreach_rdd(
      std::function<void(SparkContext&, const RDDPtr<T>&)> action) const;

  std::shared_ptr<DStreamNode<T>> node() const { return node_; }
  StreamingContext* context() const noexcept { return context_; }

 private:
  template <typename R>
  DStream<R> derive(std::function<RDDPtr<R>(RDDPtr<T>)> transform) const {
    return DStream<R>(context_, std::make_shared<TransformedDStreamNode<T, R>>(
                                    node_, std::move(transform)));
  }

  StreamingContext* context_;
  std::shared_ptr<DStreamNode<T>> node_;
};

}  // namespace dsps::spark
