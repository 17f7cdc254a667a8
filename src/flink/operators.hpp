// Erased operator layer: StreamOperator, sources, sinks, and the built-in
// operator implementations the typed DataStream API instantiates.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "flink/element.hpp"

namespace dsps::flink {

/// Downstream hand-off point for an operator.
class Collector {
 public:
  virtual ~Collector() = default;
  virtual void collect(Elem element) = 0;
};

/// Per-subtask runtime information handed to operators at open().
struct RuntimeContext {
  int subtask_index = 0;
  int parallelism = 1;
  std::string task_name;
};

/// One operator instance inside one subtask.
class StreamOperator {
 public:
  virtual ~StreamOperator() = default;
  virtual void open(const RuntimeContext& /*context*/) {}
  virtual void process(Elem element, Collector& out) = 0;
  /// Called once after the last element (flush windows / aggregates).
  virtual void close(Collector& /*out*/) {}
};

using OperatorFactory = std::function<std::unique_ptr<StreamOperator>()>;

/// Emits elements into the pipeline; run() must return on end-of-input in
/// bounded mode or when cancelled.
class SourceContext {
 public:
  virtual ~SourceContext() = default;
  virtual void collect(Elem element) = 0;
  virtual bool cancelled() const = 0;
};

class SourceFunction {
 public:
  virtual ~SourceFunction() = default;
  virtual void open(const RuntimeContext& /*context*/) {}
  virtual void run(SourceContext& context) = 0;
};

using SourceFactory = std::function<std::unique_ptr<SourceFunction>()>;

class SinkFunction {
 public:
  virtual ~SinkFunction() = default;
  virtual void open(const RuntimeContext& /*context*/) {}
  virtual void invoke(const Elem& element) = 0;
  virtual void close() {}
};

using SinkFactory = std::function<std::unique_ptr<SinkFunction>()>;

// ---------------------------------------------------------------------------
// Built-in operators.

class MapOperator final : public StreamOperator {
 public:
  explicit MapOperator(std::function<Elem(const Elem&)> fn)
      : fn_(std::move(fn)) {}
  void process(Elem element, Collector& out) override {
    out.collect(fn_(element));
  }

 private:
  std::function<Elem(const Elem&)> fn_;
};

class FilterOperator final : public StreamOperator {
 public:
  explicit FilterOperator(std::function<bool(const Elem&)> predicate)
      : predicate_(std::move(predicate)) {}
  void process(Elem element, Collector& out) override {
    if (predicate_(element)) out.collect(std::move(element));
  }

 private:
  std::function<bool(const Elem&)> predicate_;
};

/// Adapts a SinkFunction to the operator interface so sinks can be chained.
class SinkOperator final : public StreamOperator {
 public:
  explicit SinkOperator(SinkFactory factory) : factory_(std::move(factory)) {}

  void open(const RuntimeContext& context) override {
    sink_ = factory_();
    sink_->open(context);
  }
  void process(Elem element, Collector& /*out*/) override {
    sink_->invoke(element);
  }
  void close(Collector& /*out*/) override {
    if (sink_) sink_->close();
  }

 private:
  SinkFactory factory_;
  std::unique_ptr<SinkFunction> sink_;
};

}  // namespace dsps::flink
