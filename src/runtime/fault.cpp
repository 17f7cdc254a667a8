#include "runtime/fault.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "runtime/metrics.hpp"

namespace dsps::runtime {

namespace {

std::int64_t steady_now_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view fault_point_name(FaultPoint point) noexcept {
  switch (point) {
    case FaultPoint::kOperatorThrow: return "operator_throw";
    case FaultPoint::kQueueStall: return "queue_stall";
    case FaultPoint::kSlowConsumer: return "slow_consumer";
    case FaultPoint::kBrokerUnavailable: return "broker_unavailable";
    case FaultPoint::kContainerKill: return "container_kill";
    case FaultPoint::kStallForever: return "stall_forever";
  }
  return "unknown";
}

FaultInjectedError::FaultInjectedError(FaultPoint point, std::string_view site)
    : std::runtime_error("injected fault " +
                         std::string(fault_point_name(point)) + " at '" +
                         std::string(site) + "'"),
      point_(point) {}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(std::uint64_t seed, std::vector<FaultRule> schedule) {
  std::lock_guard lock(mutex_);
  rules_.clear();
  rules_.reserve(schedule.size());
  SplitMix64 positions(seed);
  for (auto& rule : schedule) {
    RuleState state;
    state.rule = std::move(rule);
    // A rule without an explicit trigger position gets one derived from the
    // seed: somewhere within the first 48 matching hits. Different seeds =>
    // faults strike at different points of the run.
    if (state.rule.after_hits == 0) {
      state.rule.after_hits = 1 + positions.next() % 48;
    } else {
      (void)positions.next();  // keep the stream aligned across schedules
    }
    rules_.push_back(std::move(state));
  }
  injected_.store(0, std::memory_order_relaxed);
  unavailable_until_us_.store(0, std::memory_order_relaxed);
  stall_interrupt_.store(false, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  std::lock_guard lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  rules_.clear();
  unavailable_until_us_.store(0, std::memory_order_relaxed);
}

std::int64_t FaultInjector::check_fire(FaultPoint point,
                                       std::string_view site) {
  std::lock_guard lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return -1;
  for (auto& state : rules_) {
    if (state.rule.point != point) continue;
    if (!state.rule.site.empty() &&
        site.find(state.rule.site) == std::string_view::npos) {
      continue;
    }
    ++state.hits;
    if (state.hits > state.rule.after_hits && state.fired < state.rule.times) {
      ++state.fired;
      return static_cast<std::int64_t>(state.rule.param_us);
    }
  }
  return -1;
}

void FaultInjector::note_fired(FaultPoint point) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  auto& global = MetricsRegistry::global();
  global.counter("fault.injected").add(1);
  global.counter("fault." + std::string(fault_point_name(point))).add(1);
}

void FaultInjector::maybe_throw_slow(FaultPoint point, std::string_view site) {
  // Every throw site doubles as a stall-forever site, so a schedule can
  // wedge any operator/task the chaos tests can already kill.
  if (check_fire(FaultPoint::kStallForever, site) >= 0) {
    note_fired(FaultPoint::kStallForever);
    stall_forever(site);
  }
  if (check_fire(point, site) < 0) return;
  note_fired(point);
  throw FaultInjectedError(point, site);
}

void FaultInjector::stall_forever(std::string_view site) {
  // Wedge in short interruptible slices: a genuine hang from the engines'
  // point of view, but one the watchdog can convert into a recoverable
  // failure via interrupt_stalls(). Disarming mid-stall just releases the
  // thread (tests tearing down must not hang).
  while (armed_.load(std::memory_order_relaxed)) {
    if (stall_interrupt_.load(std::memory_order_acquire)) {
      throw FaultInjectedError(FaultPoint::kStallForever, site);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void FaultInjector::maybe_stall_slow(FaultPoint point, std::string_view site) {
  const std::int64_t stall_us = check_fire(point, site);
  if (stall_us < 0) return;
  note_fired(point);
  if (stall_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
  }
}

bool FaultInjector::broker_unavailable_slow(std::string_view site) {
  const std::int64_t window_us =
      check_fire(FaultPoint::kBrokerUnavailable, site);
  if (window_us >= 0) {
    note_fired(FaultPoint::kBrokerUnavailable);
    const std::int64_t until = steady_now_us() + window_us;
    // Extend, never shrink, the open window.
    std::int64_t prev = unavailable_until_us_.load(std::memory_order_relaxed);
    while (prev < until && !unavailable_until_us_.compare_exchange_weak(
                               prev, until, std::memory_order_relaxed)) {
    }
  }
  return steady_now_us() <
         unavailable_until_us_.load(std::memory_order_relaxed);
}

Backoff::Backoff(const BackoffPolicy& policy)
    : policy_(policy),
      base_us_(static_cast<double>(policy.initial_us)),
      rng_(policy.seed) {}

std::uint64_t Backoff::next_delay_us() {
  const double capped =
      std::min(base_us_, static_cast<double>(policy_.max_us));
  // Jitter factor uniform in [1 - jitter, 1 + jitter], from the seeded
  // stream: the i-th delay of two Backoffs with equal policies is identical.
  const double factor =
      1.0 + policy_.jitter * (2.0 * rng_.next_double() - 1.0);
  base_us_ = std::min(base_us_ * policy_.multiplier,
                      static_cast<double>(policy_.max_us));
  const double jittered = std::max(0.0, capped * factor);
  return static_cast<std::uint64_t>(jittered);
}

void Backoff::sleep() {
  const std::uint64_t delay_us = next_delay_us();
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
}

Status run_supervised(
    const RestartPolicy& policy,
    const std::function<Status(int attempt)>& attempt_fn,
    const std::function<void(int attempt, const Status&)>& on_retry) {
  const int max_attempts = std::max(1, policy.max_attempts);
  Backoff backoff(policy.backoff);
  Status last = Status::internal("no attempt ran");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    try {
      last = attempt_fn(attempt);
    } catch (const std::exception& e) {
      last = Status::internal(std::string("attempt ") +
                              std::to_string(attempt) + " threw: " + e.what());
    } catch (...) {
      last = Status::internal(std::string("attempt ") +
                              std::to_string(attempt) +
                              " threw: unknown exception");
    }
    if (last.is_ok()) return last;
    if (attempt + 1 >= max_attempts) break;
    if (on_retry) on_retry(attempt, last);
    backoff.sleep();
  }
  return last;  // exhaustion surfaces the last attempt's error
}

}  // namespace dsps::runtime
