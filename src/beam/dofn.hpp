// DoFn: the user-code contract of ParDo (§II-A). Element-by-element
// processing where one input may produce zero or more outputs, with the
// bundle lifecycle (setup / start_bundle / process / finish_bundle /
// teardown) and optional per-key state for stateful processing.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "beam/element.hpp"

namespace dsps::beam {

template <typename In, typename Out>
class DoFn {
 public:
  /// Handed to process(): the current element plus output collectors.
  class ProcessContext {
   public:
    ProcessContext(const In& element, const Element& raw,
                   std::function<void(Out, Timestamp)> output)
        : element_(element), raw_(raw), output_(std::move(output)) {}

    const In& element() const noexcept { return element_; }
    Timestamp timestamp() const noexcept { return raw_.timestamp; }
    const BoundedWindow& windows() const noexcept { return raw_.windows; }
    PaneInfo pane() const noexcept { return raw_.pane; }

    void output(Out value) { output_(std::move(value), raw_.timestamp); }
    void output_with_timestamp(Out value, Timestamp timestamp) {
      output_(std::move(value), timestamp);
    }

   private:
    const In& element_;
    const Element& raw_;
    std::function<void(Out, Timestamp)> output_;
  };

  virtual ~DoFn() = default;

  virtual void setup() {}
  virtual void start_bundle() {}
  virtual void process(ProcessContext& context) = 0;
  /// May emit leftovers via the collector.
  virtual void finish_bundle(const std::function<void(Out)>& /*output*/) {}
  virtual void teardown() {}

  /// Stateful DoFns require keyed input and runner support; the Spark
  /// runner rejects them (§III-B: the paper excluded stateful queries for
  /// exactly this reason).
  virtual bool is_stateful() const { return false; }

  /// Real Beam deserializes a fresh DoFn per bundle; here a DoFn that owns
  /// per-instance resources (producers, buffers) returns a fresh copy and
  /// each executor instance uses its own. Returning nullptr (the default)
  /// means the instance is stateless/thread-safe and may be shared.
  virtual std::shared_ptr<DoFn<In, Out>> clone() const { return nullptr; }
};

template <typename In, typename Out>
using DoFnPtr = std::shared_ptr<DoFn<In, Out>>;

/// Adapts a plain callable (In -> Out) into a DoFn.
template <typename In, typename Out>
class MapDoFn final : public DoFn<In, Out> {
 public:
  explicit MapDoFn(std::function<Out(const In&)> fn) : fn_(std::move(fn)) {}
  void process(typename DoFn<In, Out>::ProcessContext& context) override {
    context.output(fn_(context.element()));
  }

 private:
  std::function<Out(const In&)> fn_;
};

/// Adapts a callable emitting through a collector (flat map).
template <typename In, typename Out>
class FlatMapDoFn final : public DoFn<In, Out> {
 public:
  explicit FlatMapDoFn(
      std::function<void(const In&, const std::function<void(Out)>&)> fn)
      : fn_(std::move(fn)) {}
  void process(typename DoFn<In, Out>::ProcessContext& context) override {
    fn_(context.element(), [&context](Out value) {
      context.output(std::move(value));
    });
  }

 private:
  std::function<void(const In&, const std::function<void(Out)>&)> fn_;
};

/// Adapts a predicate into a filtering DoFn.
template <typename T>
class FilterDoFn final : public DoFn<T, T> {
 public:
  explicit FilterDoFn(std::function<bool(const T&)> predicate)
      : predicate_(std::move(predicate)) {}
  void process(typename DoFn<T, T>::ProcessContext& context) override {
    if (predicate_(context.element())) context.output(context.element());
  }

 private:
  std::function<bool(const T&)> predicate_;
};

/// Stateful DoFn over KV pairs: process_stateful sees a mutable per-key
/// state cell. K must be hashable via std::hash.
template <typename K, typename V, typename Out, typename State>
class StatefulDoFn : public DoFn<KV<K, V>, Out> {
 public:
  using Context = typename DoFn<KV<K, V>, Out>::ProcessContext;

  void process(Context& context) override {
    // Keyed routing sends each key to one executor instance, but executor
    // instances of a shared DoFn may run concurrently — serialize map
    // access. (The per-key state itself is still only touched by the
    // instance owning that key.)
    State* cell;
    {
      std::lock_guard lock(mutex_);
      cell = &state_[context.element().key];
    }
    process_stateful(context, *cell);
  }

  virtual void process_stateful(Context& context, State& state) = 0;

  bool is_stateful() const final { return true; }

  /// Runner hook: iterate final states at end of input.
  void for_each_state(
      const std::function<void(const K&, const State&)>& fn) const {
    std::lock_guard lock(mutex_);
    for (const auto& [key, state] : state_) fn(key, state);
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<K, State> state_;
};

}  // namespace dsps::beam
