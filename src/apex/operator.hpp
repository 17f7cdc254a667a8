// Apex-sim operator model (§II-D): operators with input/output ports and a
// streaming-window lifecycle (setup / begin_window / process / end_window /
// teardown). Ports are registered by index in the constructor; the engine
// binds output ports to stream transports at deployment.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace dsps::apex {

/// Type-erased tuple (typed wiring is validated by the operator authors;
/// streams carry exactly one type by construction).
using Tuple = std::shared_ptr<void>;

template <typename T, typename... Args>
Tuple make_tuple_of(Args&&... args) {
  return std::make_shared<T>(std::forward<Args>(args)...);
}

template <typename T>
const T& tuple_cast(const Tuple& tuple) {
  return *static_cast<const T*>(tuple.get());
}

using WindowId = std::int64_t;

struct OperatorContext {
  std::string name;
  int partition_index = 0;
  int partition_count = 1;
};

class Operator {
 public:
  virtual ~Operator() = default;

  virtual void setup(const OperatorContext& /*context*/) {}
  virtual void begin_window(WindowId /*window*/) {}
  virtual void end_window() {}
  /// Called once when the bounded stream ends, *before* end-of-stream
  /// propagates downstream — last chance to emit buffered results.
  virtual void end_stream() {}
  virtual void teardown() {}

  /// Post-teardown resource disposition. teardown() must not throw (it also
  /// runs on shutdown/unwind paths); an operator whose close failed reports
  /// it here instead, and the engine surfaces the Status as a retryable app
  /// failure after every operator in the group has torn down.
  virtual Status close_status() const { return Status::ok(); }
  /// STRAM's committed-window notification (Apex's CheckpointListener):
  /// every operator in the DAG has fully processed window `window`, so
  /// state bound to it — e.g. the Kafka input's read offsets — may be made
  /// durable. Fires at window boundaries with the min completed window
  /// across all deployed groups.
  virtual void committed(WindowId /*window*/) {}

  // --- engine-facing surface ---
  int input_port_count() const {
    return static_cast<int>(input_handlers_.size());
  }
  int output_port_count() const { return static_cast<int>(sinks_.size()); }

  void deliver(int port, const Tuple& tuple) {
    input_handlers_[static_cast<std::size_t>(port)](tuple);
  }
  void bind_output(int port, std::function<void(Tuple)> sink) {
    sinks_[static_cast<std::size_t>(port)] = std::move(sink);
  }

 protected:
  /// Registers an input port; returns its index.
  int register_input(std::function<void(const Tuple&)> handler) {
    input_handlers_.push_back(std::move(handler));
    return static_cast<int>(input_handlers_.size()) - 1;
  }

  /// Registers an output port; returns its index.
  int register_output() {
    sinks_.emplace_back([](Tuple) {});
    return static_cast<int>(sinks_.size()) - 1;
  }

  /// Emits a tuple on an output port.
  void emit(int port, Tuple tuple) {
    sinks_[static_cast<std::size_t>(port)](std::move(tuple));
  }

 private:
  std::vector<std::function<void(const Tuple&)>> input_handlers_;
  std::vector<std::function<void(Tuple)>> sinks_;
};

/// Source operators drive the pipeline: the engine calls emit_tuples
/// repeatedly inside streaming windows until it returns false (exhausted).
class InputOperator : public Operator {
 public:
  /// Emits up to `budget` tuples: one streaming window's input. Only the
  /// window's first read may wait for input; once the source has nothing
  /// ready the call returns, so the window ends and its tuples leave the
  /// container. Returns false when the source is done.
  virtual bool emit_tuples(std::size_t budget) = 0;
};

using OperatorFactory = std::function<std::unique_ptr<Operator>()>;

}  // namespace dsps::apex
