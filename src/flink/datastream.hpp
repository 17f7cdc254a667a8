// Typed DataStream API on top of the erased stream graph.
//
// The templates erase user functions into Elem-level closures at graph
// construction time; element types on every edge are checked by the C++
// type system, so the erased runtime can use unchecked casts.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "flink/environment.hpp"

namespace dsps::flink {

template <typename T>
class DataStream {
 public:
  DataStream(StreamExecutionEnvironment* env, int node_id)
      : env_(env), node_id_(node_id) {}

  /// Element-wise transformation.
  template <typename R>
  DataStream<R> map(std::function<R(const T&)> fn,
                    const std::string& name = "Map") const {
    OperatorFactory factory = [fn = std::move(fn)] {
      return std::make_unique<MapOperator>([fn](const Elem& elem) {
        return make_elem<R>(fn(elem_cast<T>(elem)));
      });
    };
    return attach<R>(std::move(factory), name);
  }

  /// Keeps elements satisfying the predicate.
  DataStream<T> filter(std::function<bool(const T&)> predicate,
                       const std::string& name = "Filter") const {
    OperatorFactory factory = [predicate = std::move(predicate)] {
      return std::make_unique<FilterOperator>([predicate](const Elem& elem) {
        return predicate(elem_cast<T>(elem));
      });
    };
    return attach<T>(std::move(factory), name);
  }

  /// Redistributes round-robin (breaks chaining; used to force a shuffle).
  DataStream<T> rebalance() const {
    StreamNode node;
    node.name = "Rebalance";
    node.kind = NodeKind::kOperator;
    node.parallelism = env_->parallelism();
    node.make_operator = [] {
      return std::make_unique<MapOperator>([](const Elem& elem) {
        return elem;
      });
    };
    node.chainable = false;
    const int id = env_->add_node(std::move(node));
    env_->add_edge(StreamEdge{.from = node_id_,
                              .to = id,
                              .mode = PartitionMode::kRebalance,
                              .key_fn = {}});
    return DataStream<T>(env_, id);
  }

  /// Terminates the stream into a sink. The factory runs once per subtask.
  void add_sink(SinkFactory factory,
                const std::string& name = "Unnamed") const {
    StreamNode node;
    node.name = name;
    node.kind = NodeKind::kSink;
    node.parallelism = env_->parallelism();
    node.make_operator = [factory = std::move(factory)] {
      return std::make_unique<SinkOperator>(factory);
    };
    const int id = env_->add_node(std::move(node));
    env_->add_edge(StreamEdge{.from = node_id_,
                              .to = id,
                              .mode = PartitionMode::kForward,
                              .key_fn = {}});
  }

  /// Convenience sink invoking `fn` per element. Each subtask calls its own
  /// copy of `fn`, so state the copies share through captures needs a lock.
  void for_each(std::function<void(const T&)> fn,
                const std::string& name = "ForEach") const {
    class FnSink final : public SinkFunction {
     public:
      explicit FnSink(std::function<void(const T&)> fn) : fn_(std::move(fn)) {}
      void invoke(const Elem& elem) override { fn_(elem_cast<T>(elem)); }

     private:
      std::function<void(const T&)> fn_;
    };
    add_sink([fn = std::move(fn)] { return std::make_unique<FnSink>(fn); },
             name);
  }

  int node_id() const noexcept { return node_id_; }
  StreamExecutionEnvironment* environment() const noexcept { return env_; }

 private:
  template <typename R>
  DataStream<R> attach(OperatorFactory factory,
                       const std::string& name) const {
    StreamNode node;
    node.name = name;
    node.kind = NodeKind::kOperator;
    node.parallelism = env_->parallelism();
    node.make_operator = std::move(factory);
    const int id = env_->add_node(std::move(node));
    env_->add_edge(StreamEdge{.from = node_id_,
                              .to = id,
                              .mode = PartitionMode::kForward,
                              .key_fn = {}});
    return DataStream<R>(env_, id);
  }

  StreamExecutionEnvironment* env_;
  int node_id_;
};

template <typename T>
DataStream<T> StreamExecutionEnvironment::add_source(SourceFactory factory,
                                                     const std::string& name) {
  StreamNode node;
  node.name = name;
  node.kind = NodeKind::kSource;
  node.parallelism = default_parallelism_;
  node.make_source = std::move(factory);
  const int id = add_node(std::move(node));
  return DataStream<T>(this, id);
}

}  // namespace dsps::flink
