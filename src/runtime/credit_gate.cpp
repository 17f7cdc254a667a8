#include "runtime/credit_gate.hpp"

#include <chrono>
#include <thread>

#include "runtime/metrics.hpp"

namespace dsps::runtime {

CreditGate& CreditGate::instance() {
  static CreditGate gate;
  return gate;
}

void CreditGate::arm(Config config) {
  std::lock_guard lock(mutex_);
  config_ = config;
  for (auto& source : sources_) {
    source->overloaded.store(false, std::memory_order_relaxed);
  }
  overloaded_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);
}

void CreditGate::disarm() {
  std::lock_guard lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  for (auto& source : sources_) {
    source->overloaded.store(false, std::memory_order_relaxed);
  }
  overloaded_.store(0, std::memory_order_relaxed);
}

CreditGate::Source CreditGate::register_source(std::string name) {
  std::lock_guard lock(mutex_);
  sources_.push_back(std::make_unique<Source::State>());
  sources_.back()->name = std::move(name);
  return Source(sources_.back().get());
}

void CreditGate::update(Source::State& state, double fill) noexcept {
  const bool over = state.overloaded.load(std::memory_order_relaxed);
  if (!over && fill >= config_.high_watermark) {
    // exchange() so two threads reporting the same queue race to a single
    // overload transition.
    if (!state.overloaded.exchange(true, std::memory_order_acq_rel)) {
      overloaded_.fetch_add(1, std::memory_order_acq_rel);
      MetricsRegistry::global()
          .counter("backpressure.overload_transitions")
          .add(1);
    }
  } else if (over && fill <= config_.low_watermark) {
    if (state.overloaded.exchange(false, std::memory_order_acq_rel)) {
      overloaded_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
}

void CreditGate::throttle_wait(const std::function<bool()>& stop) {
  if (!should_throttle()) return;
  MetricsRegistry::global().counter("backpressure.throttle_waits").add(1);
  while (should_throttle()) {
    if (stop && stop()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::vector<std::string> CreditGate::overloaded_sources() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> names;
  for (const auto& source : sources_) {
    if (source->overloaded.load(std::memory_order_relaxed)) {
      names.push_back(source->name);
    }
  }
  return names;
}

}  // namespace dsps::runtime
