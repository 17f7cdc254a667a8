// End-to-end backpressure: a process-global credit signal from the engine
// data planes back to the MiniKafka sources.
//
// Pressure producers (Flink channels, Apex mailboxes, the kafka producer's
// pending-batch queue, Spark's batch backlog) register a Source and report
// their fill fraction as it changes. A source crossing the high watermark
// marks itself overloaded; dropping under the low watermark clears it. The
// gate is "closed" while any source is overloaded — rate-controlled
// generators call throttle_wait() before appending, so offered load above
// capacity turns into bounded queues plus throttling: every offered record
// is still appended, only later.
//
// When disarmed (the default) set_fill() and should_throttle() are a single
// relaxed atomic load, so the per-push cost in the engine hot paths is nil
// for every existing benchmark.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dsps::runtime {

class CreditGate {
 public:
  struct Config {
    double high_watermark = 0.80;  // fill fraction that opens overload
    double low_watermark = 0.50;   // fill fraction that clears it
  };

  static CreditGate& instance();

  /// Installs the config and arms the gate. Clears the overload state.
  void arm(Config config);

  /// Disarms: sources return to their zero-cost path and throttle_wait()
  /// never blocks. Registered sources stay valid.
  void disarm();

  bool armed() const noexcept { return armed_.load(std::memory_order_relaxed); }

  /// A registered pressure producer. Copyable handle; the underlying state
  /// lives for the process lifetime (sources are registered per queue or
  /// per producer, a bounded population).
  class Source {
   public:
    Source() = default;

    /// Reports the queue's fill fraction (depth / capacity). Maintains the
    /// gate's overloaded-source count on watermark crossings. One relaxed
    /// load when the gate is disarmed.
    void set_fill(double fill) noexcept {
      if (state_ == nullptr) return;
      auto& gate = CreditGate::instance();
      if (!gate.armed()) return;
      gate.update(*state_, fill);
    }

    /// Convenience overload for integer depth/capacity call sites.
    void set_depth(std::size_t depth, std::size_t capacity) noexcept {
      set_fill(capacity == 0 ? 0.0
                             : static_cast<double>(depth) /
                                   static_cast<double>(capacity));
    }

   private:
    friend class CreditGate;
    struct State {
      std::string name;
      std::atomic<bool> overloaded{false};
    };
    explicit Source(State* state) : state_(state) {}
    State* state_ = nullptr;
  };

  /// Registers a named pressure source. Thread-safe; returns a handle that
  /// stays valid for the process lifetime.
  Source register_source(std::string name);

  /// True while the gate is armed and any source is overloaded.
  bool should_throttle() const noexcept {
    if (!armed()) return false;
    return overloaded_.load(std::memory_order_acquire) > 0;
  }

  /// Blocks in short slices while should_throttle() holds (and `stop`, if
  /// provided, stays false). Counts one throttle wait when any blocking
  /// happened.
  void throttle_wait(const std::function<bool()>& stop = {});

  /// Names of the currently overloaded sources (diagnostics).
  std::vector<std::string> overloaded_sources() const;

 private:
  CreditGate() = default;
  void update(Source::State& state, double fill) noexcept;

  std::atomic<bool> armed_{false};
  std::atomic<int> overloaded_{0};
  Config config_;
  mutable std::mutex mutex_;  // guards sources_
  std::vector<std::unique_ptr<Source::State>> sources_;
};

}  // namespace dsps::runtime
