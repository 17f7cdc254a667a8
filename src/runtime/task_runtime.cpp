#include "runtime/task_runtime.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "runtime/metrics.hpp"
#include "runtime/watchdog.hpp"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace dsps::runtime {

namespace {

void name_current_thread(const std::string& name) {
#if defined(__linux__)
  // The kernel caps thread names at 15 chars + NUL.
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

}  // namespace

TaskRuntime::TaskRuntime(std::string name) : name_(std::move(name)) {}

TaskRuntime::~TaskRuntime() {
  request_stop();
  (void)join_all();
}

TaskRuntime::TaskId TaskRuntime::spawn(std::string task_name,
                                       std::function<void()> body) {
  auto task = std::make_unique<Task>();
  task->name = std::move(task_name);
  // The thread must be running before the task is published, so a
  // concurrent wait()/join_all() never observes a half-built entry.
  task->thread = std::thread([this, name = task->name,
                              body = std::move(body)] { run_body(name, body); });
  std::lock_guard lock(mutex_);
  const TaskId id = tasks_.size();
  tasks_.push_back(std::move(task));
  return id;
}

TaskRuntime::TaskId TaskRuntime::spawn_supervised(std::string task_name,
                                                  std::function<void()> body,
                                                  RestartPolicy policy) {
  return spawn(std::move(task_name),
               [this, body = std::move(body), policy]() {
                 const int max_attempts = std::max(1, policy.max_attempts);
                 Backoff backoff(policy.backoff);
                 for (int attempt = 0;; ++attempt) {
                   try {
                     body();
                     return;
                   } catch (...) {
                     // Retry only while the budget allows and the runtime is
                     // still live; otherwise the last error surfaces through
                     // the normal failure-capture path.
                     if (attempt + 1 >= max_attempts || stop_requested()) {
                       throw;
                     }
                   }
                   MetricsRegistry::global()
                       .counter("runtime.task_restarts")
                       .add(1);
                   backoff.sleep();
                 }
               });
}

void TaskRuntime::run_body(const std::string& task_name,
                           const std::function<void()>& body) noexcept {
  name_current_thread(task_name);
  // Every worker heartbeats the liveness watchdog; the invoker hot paths
  // pet the slot, so a wedged operator is detectable by heartbeat age.
  Watchdog::Registration watchdog_slot(task_name);
  try {
    // Container kills strike a worker at startup: rules match the task
    // name, so a schedule can target one engine's containers.
    FaultInjector::instance().maybe_throw(FaultPoint::kContainerKill,
                                          task_name);
    body();
  } catch (const std::exception& e) {
    record_failure(Status::internal("task '" + task_name +
                                    "' failed: " + e.what()));
  } catch (...) {
    record_failure(
        Status::internal("task '" + task_name + "' failed: unknown exception"));
  }
}

void TaskRuntime::record_failure(Status status) {
  std::function<void(const Status&)> handler;
  {
    std::lock_guard lock(mutex_);
    if (!failed_) {
      failed_ = true;
      first_failure_ = status;
      handler = failure_handler_;
    }
  }
  // Outside the lock: the handler may call back into this runtime.
  if (handler) handler(status);
}

void TaskRuntime::wait(TaskId id) {
  std::thread thread;
  {
    std::unique_lock lock(mutex_);
    if (id >= tasks_.size()) return;
    Task& task = *tasks_[id];
    if (task.joined) return;
    if (task.claimed) {
      // Another thread owns the join.
      // Block until it publishes completion instead of returning early —
      // returning here before the body finished is exactly how a failure
      // thrown during an ordered drain used to vanish from join_all().
      task_joined_cv_.wait(lock, [&task] { return task.joined; });
      return;
    }
    task.claimed = true;
    thread = std::move(task.thread);
  }
  if (thread.joinable()) thread.join();
  {
    std::lock_guard lock(mutex_);
    tasks_[id]->joined = true;
  }
  task_joined_cv_.notify_all();
}

void TaskRuntime::set_failure_handler(
    std::function<void(const Status&)> handler) {
  Status pending = Status::ok();
  std::function<void(const Status&)> installed;
  {
    std::lock_guard lock(mutex_);
    failure_handler_ = std::move(handler);
    // A failure that raced ahead of handler installation must still fire.
    if (failed_) {
      pending = first_failure_;
      installed = failure_handler_;
    }
  }
  if (!pending.is_ok() && installed) installed(pending);
}

Status TaskRuntime::first_failure() const {
  std::lock_guard lock(mutex_);
  return first_failure_;
}

Status TaskRuntime::join_all() {
  for (TaskId id = 0;; ++id) {
    {
      std::lock_guard lock(mutex_);
      if (id >= tasks_.size()) break;
    }
    wait(id);
  }
  return first_failure();
}

}  // namespace dsps::runtime
