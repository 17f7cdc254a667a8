// The one operator-invoke path shared by every engine (DESIGN.md §5g).
//
// An OperatorInvoker is the execution façade of one engine loop: it owns
// the loop's site label (the same string the FaultInjector matches on),
// its profiler attribution id, and the stage-bracketing helpers the loop
// wraps its steps in. Loops use it where they handle a batch, a task or a
// window — never per record — so every helper is an exact profiler scope;
// per-record work (chained operators, fused members, per-element DoFn
// calls) runs inside the enclosing batch's user_fn scope.
//
// All helpers are near-free when the profiler is disarmed and the fault
// injector is disarmed (two relaxed atomic loads around the user code).
#pragma once

#include <string>
#include <utility>

#include "runtime/fault.hpp"
#include "runtime/profiler.hpp"
#include "runtime/watchdog.hpp"

namespace dsps::runtime {

class OperatorInvoker {
 public:
  /// `site` doubles as the fault-injection site label and the per-operator
  /// attribution name in profile snapshots.
  explicit OperatorInvoker(std::string site)
      : site_(std::move(site)), op_(Profiler::instance().operator_id(site_)) {}

  std::uint32_t operator_id() const noexcept { return op_; }

  /// The fault-injection point, once per batch, task or window. Doubles as
  /// the loop's liveness heartbeat.
  void maybe_fault() {
    Watchdog::pet();
    FaultInjector::instance().maybe_throw(FaultPoint::kOperatorThrow, site_);
  }

  /// Operator work on a batch, task or window, attributed as user_fn.
  template <typename Fn>
  decltype(auto) invoke_unfaulted(Fn&& fn) {
    ScopedStage stage(Stage::kUserFn, op_);
    return std::forward<Fn>(fn)();
  }

  /// Blocked on a channel/mailbox/pending-queue. The wait is a *legitimate*
  /// block, so it is bracketed as watchdog-idle and never classified as a
  /// stall.
  template <typename Fn>
  decltype(auto) queue_wait(Fn&& fn) {
    Watchdog::IdleScope idle;
    ScopedStage stage(Stage::kQueueWait, op_);
    return std::forward<Fn>(fn)();
  }

  /// Simulated broker round-trip (produce flush / fetch).
  template <typename Fn>
  decltype(auto) broker_rtt(Fn&& fn) {
    ScopedStage stage(Stage::kBrokerRtt, op_);
    return std::forward<Fn>(fn)();
  }

  /// Barrier handling, window/offset commit.
  template <typename Fn>
  decltype(auto) checkpoint(Fn&& fn) {
    ScopedStage stage(Stage::kCheckpoint, op_);
    return std::forward<Fn>(fn)();
  }

  /// Task teardown: publish the calling thread's profiler slab so snapshot
  /// deltas taken after a job joins see every worker's costs.
  void close() noexcept { Profiler::instance().flush_this_thread(); }

 private:
  std::string site_;
  std::uint32_t op_ = Profiler::kNoOperator;
};

}  // namespace dsps::runtime
