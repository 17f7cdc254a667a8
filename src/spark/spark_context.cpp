#include "spark/spark_context.hpp"

#include <algorithm>

namespace dsps::spark {

SparkContext::SparkContext(SparkConf conf)
    : conf_(std::move(conf)),
      pool_(static_cast<std::size_t>(std::max(1, conf_.default_parallelism))) {
  require(conf_.default_parallelism >= 1,
          "spark.default.parallelism must be >= 1");
}

void SparkContext::prepare_shuffles(const std::shared_ptr<BaseRDD>& rdd) {
  std::set<const BaseRDD*> visited;
  prepare_recursive(rdd, visited);
}

void SparkContext::prepare_recursive(const std::shared_ptr<BaseRDD>& rdd,
                                     std::set<const BaseRDD*>& visited) {
  if (!visited.insert(rdd.get()).second) return;
  for (const auto& dep : rdd->dependencies()) {
    prepare_recursive(dep, visited);
  }
  if (rdd->has_shuffle_dependency()) {
    rdd->run_shuffle(*this);
  }
}

void SparkContext::run_stage(int tasks, const std::function<void(int)>& body) {
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    // Shuffle map tasks go through the same invoker path as result tasks,
    // under their own attribution site.
    futures.push_back(pool_.submit([&body, t] {
      runtime::OperatorInvoker invoker("spark.shuffle");
      invoker.invoke_unfaulted([&] { body(t); });
      invoker.close();
    }));
  }
  for (auto& future : futures) future.get();
  tasks_launched_.fetch_add(static_cast<std::uint64_t>(tasks));
}

}  // namespace dsps::spark
