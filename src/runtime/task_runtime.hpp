// Shared worker-thread lifecycle for all engines.
//
// Every engine sim used to hand-roll its threads: Flink kept a raw
// std::vector<std::thread> in the job handle, Spark detached a generator
// loop, Apex started its group threads by hand. None of them had a story
// for an operator that *throws* — the exception escaped the thread and
// aborted the process (or worse, a producer died silently and the
// consumers blocked forever).
//
// A TaskRuntime owns named worker threads with a supervised lifecycle:
//  * spawn()         — start a named task; the name lands on the OS thread
//                      (pthread_setname_np) so gdb/top show real names;
//  * request_stop()  — cooperative stop flag, polled by task bodies and by
//                      supervised restarts (a blocked task unwinds when its
//                      engine closes the queue it waits on);
//  * wait()/join_all() — ordered shutdown: join in spawn order, which is
//                      pipeline order for every engine here (sources first,
//                      sinks last), so upstream EOS propagates before a
//                      downstream join can block;
//  * failure capture — a throwing task body becomes a Status; the first
//                      failure fires the supervisor's failure handler
//                      (which typically calls request_stop), so a crashing
//                      operator fails the job instead of wedging it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "runtime/fault.hpp"

namespace dsps::runtime {

class TaskRuntime {
 public:
  using TaskId = std::size_t;

  explicit TaskRuntime(std::string name = "runtime");

  /// Stops and joins every remaining task. A task body that outlives its
  /// runtime is a bug this destructor turns into a clean join, not a leak.
  ~TaskRuntime();

  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;

  /// Starts a named worker thread running `body`. Exceptions thrown by
  /// `body` are captured as an internal Status and reported to the failure
  /// handler; they never escape the thread.
  TaskId spawn(std::string task_name, std::function<void()> body);

  /// Like spawn(), but the worker restarts itself on failure: a throwing
  /// body is retried (with the policy's backoff) until it succeeds, the
  /// attempt budget is exhausted, or stop is requested — only then does the
  /// last error surface as the task's failure.
  TaskId spawn_supervised(std::string task_name, std::function<void()> body,
                          RestartPolicy policy);

  /// Joins one task (idempotent; safe to call after join_all()). Blocks
  /// until the task body has finished and its failure, if any, has been
  /// recorded — even when another thread performs the actual join. This is
  /// what makes an ordered drain sound when a worker throws mid-stop: every
  /// waiter observes the completed task, and first_failure() is never read
  /// before the failing body has published its error.
  void wait(TaskId id);

  /// Sets the cooperative stop flag.
  void request_stop() {
    stop_requested_.store(true, std::memory_order_release);
  }
  bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_acquire);
  }

  /// Called once, with the first failure, from the failing task's thread.
  /// Typical supervisor: log + request_stop(). Set before spawning.
  void set_failure_handler(std::function<void(const Status&)> handler);

  /// The first captured failure (ok() when every task succeeded so far).
  Status first_failure() const;

  /// Joins every task in spawn order and returns first_failure().
  Status join_all();

 private:
  struct Task {
    std::string name;
    std::thread thread;
    bool joined = false;    // set once the thread is joined
    bool claimed = false;   // a waiter owns the join
  };

  void run_body(const std::string& task_name,
                const std::function<void()>& body) noexcept;
  void record_failure(Status status);

  const std::string name_;
  mutable std::mutex mutex_;
  std::condition_variable task_joined_cv_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::function<void(const Status&)> failure_handler_;
  Status first_failure_;
  bool failed_ = false;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace dsps::runtime
