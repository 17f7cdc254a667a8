// Deterministic fault injection + recovery primitives for every engine sim.
//
// The paper's engines earn their keep by surviving failures — Flink restarts
// from checkpoint barriers, Spark re-executes micro-batches, Apex reattempts
// the application — but measuring recovery requires *reproducible* failure.
// A FaultInjector is a process-global, schedule-driven switchboard: tests arm
// it with a seed and a list of FaultRules, engines call the injection points
// from their data planes, and the same seed always kills the same operator at
// the same record count. When disarmed (the default, and the state for every
// perf benchmark) each injection point is a single relaxed atomic load.
//
// The same header carries the recovery side shared by all engines: capped
// exponential backoff with deterministic jitter (Backoff), and a bounded
// restart loop (RestartPolicy + run_supervised) that Flink job restarts and
// Apex application reattempts both reuse.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace dsps::runtime {

/// Where in a data plane a fault can strike.
enum class FaultPoint {
  kOperatorThrow,      // a user-function / operator body throws
  kQueueStall,         // a channel/mailbox push stalls for param_us
  kSlowConsumer,       // a consumer poll stalls for param_us
  kBrokerUnavailable,  // the broker rejects appends/fetches for param_us
  kContainerKill,      // a worker/container dies at task startup
  kStallForever,       // a task wedges until the watchdog interrupts it
};

std::string_view fault_point_name(FaultPoint point) noexcept;

/// One entry of a fault schedule. A rule matches an injection call when the
/// points are equal and `site` is a substring of the call's site label
/// (empty matches every site). The rule passes its first `after_hits`
/// matching calls, then fires on the next `times` of them.
struct FaultRule {
  FaultPoint point = FaultPoint::kOperatorThrow;
  std::string site;              // substring match; empty = any site
  std::uint64_t after_hits = 0;  // 0 = derive deterministically from the seed
  int times = 1;                 // how many matching calls fire
  std::uint64_t param_us = 0;    // stall / unavailability duration
};

/// Thrown by maybe_throw when a rule fires. Recovery layers treat it like
/// any other operator failure; tests can assert on the site label.
class FaultInjectedError : public std::runtime_error {
 public:
  FaultInjectedError(FaultPoint point, std::string_view site);
  FaultPoint point() const noexcept { return point_; }

 private:
  FaultPoint point_;
};

class FaultInjector {
 public:
  /// The process-global injector every injection point consults.
  static FaultInjector& instance();

  /// Installs a schedule and arms the injector. Rules with after_hits == 0
  /// get a deterministic trigger position derived from (seed, rule index),
  /// so distinct seeds kill pipelines at distinct records. Resets all hit
  /// counters and unavailability windows.
  void arm(std::uint64_t seed, std::vector<FaultRule> schedule);

  /// Disarms and clears the schedule. Injection points return to their
  /// zero-cost path. Fired-fault totals survive until the next arm().
  void disarm();

  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Throws FaultInjectedError if a matching kOperatorThrow/kContainerKill
  /// rule fires. No-op (one relaxed load) when disarmed. Every call is also
  /// a kStallForever site: a firing stall rule wedges the calling thread in
  /// interruptible slices until interrupt_stalls() (the watchdog's recovery
  /// hook) converts it into a FaultInjectedError.
  void maybe_throw(FaultPoint point, std::string_view site) {
    if (!armed()) return;
    maybe_throw_slow(point, site);
  }

  /// Unblocks every thread wedged in a kStallForever fault; each one throws
  /// FaultInjectedError(kStallForever) into its supervised restart loop.
  /// Called by the Watchdog on stall detection.
  void interrupt_stalls() noexcept {
    stall_interrupt_.store(true, std::memory_order_release);
  }

  /// Sleeps for the firing rule's param_us (queue stalls, slow consumers).
  void maybe_stall(FaultPoint point, std::string_view site) {
    if (!armed()) return;
    maybe_stall_slow(point, site);
  }

  /// True while a broker-unavailability window is open at `site`. A firing
  /// kBrokerUnavailable rule opens a window of param_us wall-clock.
  bool broker_unavailable(std::string_view site) {
    if (!armed()) return false;
    return broker_unavailable_slow(site);
  }

  /// Total faults fired since the last arm().
  std::uint64_t injected_count() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  struct RuleState {
    FaultRule rule;
    std::uint64_t hits = 0;
    int fired = 0;
  };

  FaultInjector() = default;

  void maybe_throw_slow(FaultPoint point, std::string_view site);
  void maybe_stall_slow(FaultPoint point, std::string_view site);
  bool broker_unavailable_slow(std::string_view site);
  void stall_forever(std::string_view site);  // throws on interrupt

  /// Returns the firing rule's param_us, or -1 if no rule fired.
  std::int64_t check_fire(FaultPoint point, std::string_view site);
  void note_fired(FaultPoint point);

  std::atomic<bool> armed_{false};
  std::atomic<bool> stall_interrupt_{false};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::int64_t> unavailable_until_us_{0};  // steady-clock stamp
  std::mutex mutex_;
  std::vector<RuleState> rules_;
};

/// Capped exponential backoff with deterministic jitter: delay i is
/// min(initial * multiplier^i, max) scaled by a jitter factor drawn from a
/// seeded generator, so retry timing is reproducible under test.
struct BackoffPolicy {
  std::uint64_t initial_us = 200;
  double multiplier = 2.0;
  std::uint64_t max_us = 20'000;
  double jitter = 0.2;      // uniform in [1 - jitter, 1 + jitter]
  std::uint64_t seed = 42;  // jitter stream seed
};

class Backoff {
 public:
  explicit Backoff(const BackoffPolicy& policy);

  /// The next delay in the sequence (advances the exponential state and the
  /// jitter stream).
  std::uint64_t next_delay_us();

  /// Sleeps for next_delay_us().
  void sleep();

 private:
  BackoffPolicy policy_;
  double base_us_;
  Xoshiro256 rng_;
};

/// Bounded-restart policy shared by Flink job restarts, Spark batch retries,
/// Apex application reattempts and supervised TaskRuntime workers.
struct RestartPolicy {
  int max_attempts = 1;  // total attempts; 1 = fail fast (no retry)
  BackoffPolicy backoff;
};

/// Runs `attempt_fn` up to policy.max_attempts times, backing off between
/// attempts. An attempt that throws is converted to an internal Status.
/// Returns ok() from the first successful attempt; on exhaustion returns the
/// *last* attempt's error. `on_retry`, if set, observes each failure that
/// will be retried (for restart metrics).
Status run_supervised(
    const RestartPolicy& policy,
    const std::function<Status(int attempt)>& attempt_fn,
    const std::function<void(int attempt, const Status&)>& on_retry = {});

}  // namespace dsps::runtime
