// Pipeline and the typed PCollection/PTransform API (§II-A).
//
//   beam::Pipeline p;
//   auto records = p.apply(KafkaIO::read(broker, "input"));
//   auto kvs     = records.apply(KafkaIO::without_metadata());
//   auto values  = kvs.apply(Values<std::string>::create());
//   auto hits    = values.apply(Filter<std::string>::by([](const auto& s) {
//                    return s.find("test") != std::string::npos; }));
//   hits.apply(KafkaIO::write(broker, "output"));
//   auto result  = p.run(runner);
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "beam/graph.hpp"
#include "beam/runner.hpp"

namespace dsps::beam {

template <typename T>
class PCollection;

class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Applies a root transform (one with an `expand(Pipeline&)`).
  template <typename Transform>
  auto apply(const Transform& transform) {
    return transform.expand(*this);
  }

  Result<PipelineResult> run(PipelineRunner& runner) {
    return runner.run(*this);
  }

  BeamGraph& graph() noexcept { return graph_; }
  const BeamGraph& graph() const noexcept { return graph_; }

 private:
  BeamGraph graph_;
};

/// A (possibly unbounded) distributed data set handle.
template <typename T>
class PCollection {
 public:
  PCollection(Pipeline* pipeline, int node_id)
      : pipeline_(pipeline), node_id_(node_id) {}

  /// Applies a transform (one with an `expand(const PCollection<T>&)`).
  template <typename Transform>
  auto apply(const Transform& transform) const {
    return transform.expand(*this);
  }

  Pipeline* pipeline() const noexcept { return pipeline_; }
  int node_id() const noexcept { return node_id_; }

 private:
  Pipeline* pipeline_;
  int node_id_;
};

// ---------------------------------------------------------------------------
// Core transforms.

/// ParDo.of(do_fn): the element-by-element core transform.
template <typename In, typename Out>
class ParDoTransform {
 public:
  ParDoTransform(DoFnPtr<In, Out> fn, std::string name)
      : fn_(std::move(fn)), name_(std::move(name)) {}

  ParDoTransform with_name(std::string name) const {
    ParDoTransform copy = *this;
    copy.name_ = std::move(name);
    return copy;
  }

  PCollection<Out> expand(const PCollection<In>& input) const {
    TransformNode node;
    node.kind = TransformKind::kParDo;
    node.name = name_;
    node.urn = urns::kParDo;
    node.input = input.node_id();
    node.stage = [fn = fn_] {
      return std::make_unique<ParDoExecutor<In, Out>>(fn);
    };
    node.stateful = fn_->is_stateful();
    if constexpr (KvElement<In>) {
      // Stateful DoFns need keyed routing so every instance owns its keys.
      if (fn_->is_stateful()) {
        node.key_hash =
            kv_key_hash<typename In::key_t, typename In::value_t>;
      }
    }
    if constexpr (requires { CoderTraits<Out>::of(); }) {
      node.output_coder = CoderTraits<Out>::of();
    }
    const int id = input.pipeline()->graph().add_node(std::move(node));
    return PCollection<Out>(input.pipeline(), id);
  }

 private:
  DoFnPtr<In, Out> fn_;
  std::string name_;
};

struct ParDo {
  template <typename In, typename Out>
  static ParDoTransform<In, Out> of(DoFnPtr<In, Out> fn,
                                    std::string name = "ParDo") {
    return ParDoTransform<In, Out>(std::move(fn), std::move(name));
  }
};

/// MapElements.via(fn).
template <typename In, typename Out>
class MapElements {
 public:
  static MapElements via(std::function<Out(const In&)> fn,
                         std::string name = "MapElements") {
    return MapElements(std::move(fn), std::move(name));
  }

  PCollection<Out> expand(const PCollection<In>& input) const {
    return ParDo::of<In, Out>(std::make_shared<MapDoFn<In, Out>>(fn_), name_)
        .expand(input);
  }

 private:
  MapElements(std::function<Out(const In&)> fn, std::string name)
      : fn_(std::move(fn)), name_(std::move(name)) {}

  std::function<Out(const In&)> fn_;
  std::string name_;
};

/// FlatMapElements.via(fn): fn emits through the collector callback.
template <typename In, typename Out>
class FlatMapElements {
 public:
  static FlatMapElements via(
      std::function<void(const In&, const std::function<void(Out)>&)> fn,
      std::string name = "FlatMapElements") {
    return FlatMapElements(std::move(fn), std::move(name));
  }

  PCollection<Out> expand(const PCollection<In>& input) const {
    return ParDo::of<In, Out>(std::make_shared<FlatMapDoFn<In, Out>>(fn_),
                              name_)
        .expand(input);
  }

 private:
  FlatMapElements(
      std::function<void(const In&, const std::function<void(Out)>&)> fn,
      std::string name)
      : fn_(std::move(fn)), name_(std::move(name)) {}

  std::function<void(const In&, const std::function<void(Out)>&)> fn_;
  std::string name_;
};

/// Filter.by(predicate).
template <typename T>
class Filter {
 public:
  static Filter by(std::function<bool(const T&)> predicate,
                   std::string name = "Filter") {
    return Filter(std::move(predicate), std::move(name));
  }

  PCollection<T> expand(const PCollection<T>& input) const {
    return ParDo::of<T, T>(std::make_shared<FilterDoFn<T>>(predicate_), name_)
        .expand(input);
  }

 private:
  Filter(std::function<bool(const T&)> predicate, std::string name)
      : predicate_(std::move(predicate)), name_(std::move(name)) {}

  std::function<bool(const T&)> predicate_;
  std::string name_;
};

/// Values.create(): KV<K,V> -> V (drops keys; §III-C3's plan walkthrough).
template <typename V>
struct Values {
  template <typename K>
  struct OfKv {
    PCollection<V> expand(const PCollection<KV<K, V>>& input) const {
      return MapElements<KV<K, V>, V>::via(
                 [](const KV<K, V>& kv) { return kv.value; }, "Values")
          .expand(input);
    }
  };

  template <typename K = std::string>
  static OfKv<K> create() {
    return OfKv<K>{};
  }
};

/// Generic source transform from a ReaderFactory (used by IOs and tests).
template <typename T>
class ReadTransform {
 public:
  ReadTransform(ReaderFactory reader, std::string name)
      : reader_(std::move(reader)), name_(std::move(name)) {}

  PCollection<T> expand(Pipeline& pipeline) const {
    TransformNode node;
    node.kind = TransformKind::kRead;
    node.name = name_;
    node.urn = urns::kRead;
    node.reader = reader_;
    if constexpr (requires { CoderTraits<T>::of(); }) {
      node.output_coder = CoderTraits<T>::of();
    }
    const int id = pipeline.graph().add_node(std::move(node));
    return PCollection<T>(&pipeline, id);
  }

 private:
  ReaderFactory reader_;
  std::string name_;
};

/// Create.of(values): in-memory bounded source (tests & quickstart).
template <typename T>
class Create {
 public:
  static ReadTransform<T> of(std::vector<T> values,
                             std::string name = "Create") {
    auto shared = std::make_shared<const std::vector<T>>(std::move(values));
    ReaderFactory factory = [shared](int shard, int num_shards) {
      class VectorReader final : public SourceReader {
       public:
        VectorReader(std::shared_ptr<const std::vector<T>> values, int shard,
                     int num_shards)
            : values_(std::move(values)),
              index_(static_cast<std::size_t>(shard)),
              stride_(static_cast<std::size_t>(num_shards)) {}
        bool advance(Element& out) override {
          if (index_ >= values_->size()) return false;
          out = make_element<T>((*values_)[index_]);
          index_ += stride_;
          return true;
        }

       private:
        std::shared_ptr<const std::vector<T>> values_;
        std::size_t index_;
        std::size_t stride_;
      };
      return std::make_unique<VectorReader>(shared, shard, num_shards);
    };
    return ReadTransform<T>(std::move(factory), std::move(name));
  }
};

}  // namespace dsps::beam
