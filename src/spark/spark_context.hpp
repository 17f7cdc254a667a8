// SparkContext: the driver-side coordinator (§II-C). It owns the executor
// thread pool, splits a job into shuffle map stages + a result stage by
// walking RDD lineage, and schedules one task per partition.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <vector>

#include "common/thread_pool.hpp"
#include "runtime/invoker.hpp"
#include "spark/rdd.hpp"

namespace dsps::spark {

struct SparkConf {
  /// spark.default.parallelism: partitions per batch / shuffle, and the
  /// executor threads (cores) that run them.
  int default_parallelism = 1;
};

class SparkContext {
 public:
  explicit SparkContext(SparkConf conf);

  SparkContext(const SparkContext&) = delete;
  SparkContext& operator=(const SparkContext&) = delete;

  const SparkConf& conf() const noexcept { return conf_; }

  /// Creates a leaf RDD by splitting `data` into `num_partitions` contiguous
  /// slices. One partition takes `data` whole, without touching an element.
  template <typename T>
  RDDPtr<T> parallelize(std::vector<T> data, int num_partitions) {
    require(num_partitions >= 1, "need at least one partition");
    std::vector<std::vector<T>> parts(
        static_cast<std::size_t>(num_partitions));
    if (num_partitions == 1) {
      parts[0] = std::move(data);
    } else {
      const std::size_t per_part =
          (data.size() + static_cast<std::size_t>(num_partitions) - 1) /
          static_cast<std::size_t>(num_partitions);
      for (auto& part : parts) part.reserve(per_part);
      std::size_t index = 0;
      for (auto& value : data) {
        parts[per_part == 0 ? 0 : index / per_part].push_back(
            std::move(value));
        ++index;
      }
    }
    return std::make_shared<ParallelCollectionRDD<T>>(std::move(parts));
  }

  /// Runs `fn` over every partition of `rdd` (a result stage), running any
  /// shuffle map stages in lineage first. `fn` receives the partition's
  /// lazy iterator: pulling it drives the pipelined narrow chain.
  /// Blocks until completion.
  template <typename T>
  void run_job(const RDDPtr<T>& rdd,
               const std::function<void(int, IterPtr<T>)>& fn) {
    prepare_shuffles(rdd);
    const int parts = rdd->partitions();
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(parts));
    for (int p = 0; p < parts; ++p) {
      // Each result-stage task runs through the unified invoker path:
      // pulling the partition iterator drives the whole narrow chain, so
      // the user_fn stage covers the pipelined operator work of this task.
      futures.push_back(pool_.submit([&rdd, &fn, p] {
        runtime::OperatorInvoker invoker("spark.task");
        invoker.invoke_unfaulted([&] { fn(p, rdd->compute(p)); });
        invoker.close();
      }));
    }
    for (auto& future : futures) future.get();
    tasks_launched_.fetch_add(static_cast<std::uint64_t>(parts));
    jobs_run_.fetch_add(1);
  }

  /// Gathers all elements to the driver.
  template <typename T>
  std::vector<T> collect(const RDDPtr<T>& rdd) {
    const int parts = rdd->partitions();
    std::vector<std::vector<T>> per_part(static_cast<std::size_t>(parts));
    std::mutex mutex;
    run_job<T>(rdd, [&](int p, IterPtr<T> iter) {
      std::vector<T> data = drain(*iter);
      std::lock_guard lock(mutex);
      per_part[static_cast<std::size_t>(p)] = std::move(data);
    });
    std::vector<T> out;
    for (auto& part : per_part) {
      for (auto& value : part) out.push_back(std::move(value));
    }
    return out;
  }

  template <typename T>
  std::size_t count(const RDDPtr<T>& rdd) {
    std::atomic<std::size_t> total{0};
    run_job<T>(rdd, [&](int, IterPtr<T> iter) {
      std::size_t n = 0;
      while (iter->next()) ++n;
      total.fetch_add(n);
    });
    return total.load();
  }

  /// Walks lineage and materializes every un-run shuffle, parents first.
  void prepare_shuffles(const std::shared_ptr<BaseRDD>& rdd);

  /// Executes stage tasks for shuffle materialization (used by RDDs).
  void run_stage(int tasks, const std::function<void(int)>& body);

  // Scheduler metrics (tests assert on these).
  std::uint64_t jobs_run() const noexcept { return jobs_run_.load(); }
  std::uint64_t tasks_launched() const noexcept {
    return tasks_launched_.load();
  }
  std::uint64_t shuffles_run() const noexcept { return shuffles_run_.load(); }
  void note_shuffle() noexcept { shuffles_run_.fetch_add(1); }

 private:
  void prepare_recursive(const std::shared_ptr<BaseRDD>& rdd,
                         std::set<const BaseRDD*>& visited);

  SparkConf conf_;
  ThreadPool pool_;
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<std::uint64_t> tasks_launched_{0};
  std::atomic<std::uint64_t> shuffles_run_{0};
};

// --- wide-dependency shuffle implementations (need SparkContext) -----------

template <typename T>
void RepartitionRDD<T>::run_shuffle(SparkContext& context) {
  std::lock_guard lock(mutex_);
  if (materialized_) return;
  std::vector<std::vector<T>> buckets(static_cast<std::size_t>(target_));
  std::mutex bucket_mutex;
  const int parent_parts = parent_->partitions();
  std::atomic<std::size_t> next{0};
  context.run_stage(parent_parts, [&](int p) {
    std::vector<T> data = drain(*parent_->compute(p));
    std::lock_guard inner(bucket_mutex);
    for (T& value : data) {
      buckets[next.fetch_add(1) % buckets.size()].push_back(std::move(value));
    }
  });
  for (auto& bucket : buckets) {
    buckets_.push_back(
        std::make_shared<const std::vector<T>>(std::move(bucket)));
  }
  context.note_shuffle();
  materialized_ = true;
}

}  // namespace dsps::spark
