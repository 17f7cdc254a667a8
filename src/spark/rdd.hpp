// RDDs: immutable, partitioned, lazily evaluated collections with lineage.
//
// compute(split) returns a pull-based iterator: narrow dependencies
// (map/filter/mapPartitions) pipeline through the whole chain one record at
// a time, exactly like a Spark stage. The one wide dependency, repartition,
// materializes a shuffle: the parent side runs as its own stage and writes
// buckets the child side iterates (see SparkContext::prepare_shuffles).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "spark/iterator.hpp"

namespace dsps::spark {

class SparkContext;

/// Untyped base so the scheduler can walk lineage without knowing T.
class BaseRDD {
 public:
  virtual ~BaseRDD() = default;
  virtual int partitions() const = 0;

  /// Direct lineage parents (narrow or wide).
  virtual std::vector<std::shared_ptr<BaseRDD>> dependencies() const = 0;

  /// True when this RDD reads a shuffle written by its parent.
  virtual bool has_shuffle_dependency() const { return false; }

  /// Materializes this RDD's shuffle input (wide deps only). The scheduler
  /// calls this parent-first, once per RDD instance.
  virtual void run_shuffle(SparkContext& /*context*/) {}
};

template <typename T>
class RDD : public BaseRDD, public std::enable_shared_from_this<RDD<T>> {
 public:
  /// Computes one partition as a lazy iterator.
  virtual IterPtr<T> compute(int split) const = 0;
};

template <typename T>
using RDDPtr = std::shared_ptr<RDD<T>>;

// ---------------------------------------------------------------------------

/// Leaf RDD over in-memory data (one vector per partition).
template <typename T>
class ParallelCollectionRDD final : public RDD<T> {
 public:
  explicit ParallelCollectionRDD(std::vector<std::vector<T>> parts)
      : parts_(std::make_shared<const std::vector<std::vector<T>>>(
            std::move(parts))) {}

  int partitions() const override { return static_cast<int>(parts_->size()); }
  std::vector<std::shared_ptr<BaseRDD>> dependencies() const override {
    return {};
  }
  IterPtr<T> compute(int split) const override {
    // Walk the slice in place: the partition is never moved from, so a
    // recompute (a batch retry) yields the same rows. The iterator shares
    // ownership of the storage and outlives the RDD if it must.
    const std::vector<T>& slice = parts_->at(static_cast<std::size_t>(split));
    return std::make_unique<SliceIterator<T>>(
        std::shared_ptr<const std::vector<T>>(parts_, &slice));
  }

 private:
  std::shared_ptr<const std::vector<std::vector<T>>> parts_;
};

template <typename T, typename R>
class MapRDD final : public RDD<R> {
 public:
  MapRDD(RDDPtr<T> parent, std::function<R(const T&)> fn)
      : parent_(std::move(parent)), fn_(std::move(fn)) {}

  int partitions() const override { return parent_->partitions(); }
  std::vector<std::shared_ptr<BaseRDD>> dependencies() const override {
    return {parent_};
  }
  IterPtr<R> compute(int split) const override {
    class MapIter final : public Iterator<R> {
     public:
      MapIter(IterPtr<T> in, const std::function<R(const T&)>& fn)
          : in_(std::move(in)), fn_(fn) {}
      std::optional<R> next() override {
        auto value = in_->next();
        if (!value) return std::nullopt;
        return fn_(*value);
      }

     private:
      IterPtr<T> in_;
      const std::function<R(const T&)>& fn_;
    };
    return std::make_unique<MapIter>(parent_->compute(split), fn_);
  }

 private:
  RDDPtr<T> parent_;
  std::function<R(const T&)> fn_;
};

template <typename T>
class FilterRDD final : public RDD<T> {
 public:
  FilterRDD(RDDPtr<T> parent, std::function<bool(const T&)> predicate)
      : parent_(std::move(parent)), predicate_(std::move(predicate)) {}

  int partitions() const override { return parent_->partitions(); }
  std::vector<std::shared_ptr<BaseRDD>> dependencies() const override {
    return {parent_};
  }
  IterPtr<T> compute(int split) const override {
    class FilterIter final : public Iterator<T> {
     public:
      FilterIter(IterPtr<T> in, const std::function<bool(const T&)>& pred)
          : in_(std::move(in)), pred_(pred) {}
      std::optional<T> next() override {
        while (auto value = in_->next()) {
          if (pred_(*value)) return value;
        }
        return std::nullopt;
      }

     private:
      IterPtr<T> in_;
      const std::function<bool(const T&)>& pred_;
    };
    return std::make_unique<FilterIter>(parent_->compute(split), predicate_);
  }

 private:
  RDDPtr<T> parent_;
  std::function<bool(const T&)> predicate_;
};

/// Iterator-to-iterator transformation of a whole partition (Spark's
/// mapPartitions) — what the Beam Spark runner uses per translated
/// transform. Lazy: the returned iterator pulls from the input iterator.
template <typename T, typename R>
class MapPartitionsRDD final : public RDD<R> {
 public:
  using PartitionFn = std::function<IterPtr<R>(IterPtr<T>)>;

  MapPartitionsRDD(RDDPtr<T> parent, PartitionFn fn)
      : parent_(std::move(parent)), fn_(std::move(fn)) {}

  int partitions() const override { return parent_->partitions(); }
  std::vector<std::shared_ptr<BaseRDD>> dependencies() const override {
    return {parent_};
  }
  IterPtr<R> compute(int split) const override {
    return fn_(parent_->compute(split));
  }

 private:
  RDDPtr<T> parent_;
  PartitionFn fn_;
};

/// A materialized shuffle's output, one shared bucket per child partition.
/// compute(split) walks its bucket in place (SliceIterator), copying one row
/// per pull: the bucket is never copied whole and never moved from, so a
/// batch retry recomputes the split from the same rows.
template <typename T>
using Buckets = std::vector<std::shared_ptr<const std::vector<T>>>;

/// Wide dependency: redistributes elements round-robin into
/// `target_partitions` buckets via a materialized shuffle.
template <typename T>
class RepartitionRDD final : public RDD<T> {
 public:
  RepartitionRDD(RDDPtr<T> parent, int target_partitions)
      : parent_(std::move(parent)), target_(target_partitions) {
    require(target_partitions >= 1, "repartition target must be >= 1");
  }

  int partitions() const override { return target_; }
  std::vector<std::shared_ptr<BaseRDD>> dependencies() const override {
    return {parent_};
  }
  bool has_shuffle_dependency() const override { return true; }
  void run_shuffle(SparkContext& context) override;

  IterPtr<T> compute(int split) const override {
    std::lock_guard lock(mutex_);
    require(materialized_, "RepartitionRDD computed before its shuffle ran");
    return std::make_unique<SliceIterator<T>>(
        buckets_.at(static_cast<std::size_t>(split)));
  }

 private:
  RDDPtr<T> parent_;
  int target_;
  mutable std::mutex mutex_;
  bool materialized_ = false;
  Buckets<T> buckets_;
};

}  // namespace dsps::spark
