#include "flink/checkpoint.hpp"

#include <utility>

#include "runtime/profiler.hpp"

namespace dsps::flink {

void CheckpointCoordinator::register_sink(int subtask,
                                          std::function<void()> commit_epoch) {
  std::lock_guard lock(mutex_);
  sinks_[subtask].push_back(std::move(commit_epoch));
}

void CheckpointCoordinator::barrier(int subtask) {
  // Barrier handling is the checkpoint stage: sink flushes and the offset
  // commit that follows dominate an epoch boundary's cost.
  runtime::ScopedStage stage(runtime::Stage::kCheckpoint);
  // Copy the callbacks out so a sink flush (which may take a while under an
  // injected broker outage) doesn't hold the registration lock.
  std::vector<std::function<void()>> commits;
  {
    std::lock_guard lock(mutex_);
    const auto it = sinks_.find(subtask);
    if (it != sinks_.end()) commits = it->second;
  }
  for (const auto& commit : commits) commit();
  completed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace dsps::flink
