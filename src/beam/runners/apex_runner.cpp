#include "beam/runners/apex_runner.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <string_view>
#include <utility>

#include "beam/fusion.hpp"
#include "common/clock.hpp"
#include "apex/dag.hpp"
#include "apex/engine.hpp"
#include "runtime/metrics.hpp"

namespace dsps::beam {

namespace {

/// Serializes the full windowed value on every inter-container hop. The
/// encode goes through the arena slab path (batch-amortized); the decode
/// hands Payload-typed values back as slices aliasing the wire buffer.
class BeamTupleCodec final : public apex::StreamCodec {
 public:
  explicit BeamTupleCodec(CoderPtr value_coder)
      : coder_(std::move(value_coder)) {}

  runtime::Payload serialize(const apex::Tuple& tuple,
                             runtime::PayloadArena& arena) const override {
    return coder_.encode(apex::tuple_cast<Element>(tuple), arena);
  }
  apex::Tuple deserialize(const runtime::Payload& bytes) const override {
    return apex::make_tuple_of<Element>(coder_.decode(bytes));
  }

 private:
  WindowedValueCoder coder_;
};

/// Source operator pumping a Beam reader.
class BeamApexInput final : public apex::InputOperator {
 public:
  explicit BeamApexInput(ReaderFactory factory)
      : factory_(std::move(factory)), out_(register_output()) {}

  void setup(const apex::OperatorContext& context) override {
    reader_ = factory_(context.partition_index, context.partition_count);
    reader_->open();
  }

  bool emit_tuples(std::size_t budget) override {
    Element element;
    for (std::size_t i = 0; i < budget; ++i) {
      if (!reader_->advance(element)) return false;
      emit(out_, apex::make_tuple_of<Element>(std::move(element)));
      element = Element{};
    }
    return true;
  }

  void teardown() override {
    if (reader_) reader_->close();
  }

 private:
  ReaderFactory factory_;
  int out_;
  std::unique_ptr<SourceReader> reader_;
};

/// Stage operator with single-element bundles.
class BeamApexStage final : public apex::Operator {
 public:
  explicit BeamApexStage(StageFactory factory)
      : factory_(std::move(factory)),
        in_(register_input([this](const apex::Tuple& tuple) {
          on_tuple(tuple);
        })),
        out_(register_output()) {}

  void setup(const apex::OperatorContext& /*context*/) override {
    executor_ = factory_();
    executor_->start();
  }

  void end_stream() override {
    if (executor_) executor_->finish(emit_fn());
  }

 private:
  Emit emit_fn() {
    return [this](Element&& produced) {
      emit(out_, apex::make_tuple_of<Element>(std::move(produced)));
    };
  }

  void on_tuple(const apex::Tuple& tuple) {
    const Emit emit = emit_fn();
    executor_->process(apex::tuple_cast<Element>(tuple), emit);
    // One-element bundles: buffering DoFns (the Kafka writer) flush here.
    executor_->bundle_boundary(emit);
  }

  StageFactory factory_;
  int in_;
  int out_;
  std::unique_ptr<StageExecutor> executor_;
};

Status translate(const BeamGraph& graph, const ApexRunnerOptions& options,
                 apex::Dag& dag) {
  if (graph.nodes().empty()) {
    return Status::failed_precondition("empty pipeline");
  }
  std::map<int, int> beam_to_apex;
  for (const auto& node : graph.nodes()) {
    // The node's parallelism hint wins over the pipeline default — the
    // runner maps it onto Apex's native operator partitioning.
    const int node_parallelism = node.parallelism_hint > 0
                                     ? node.parallelism_hint
                                     : options.parallelism;
    int apex_id;
    if (node.kind == TransformKind::kRead) {
      apex_id = dag.add_input_operator(node.name, [factory = node.reader] {
        return std::make_unique<BeamApexInput>(factory);
      });
      // Partitioned read: each physical instance is a reader shard
      // (BeamApexInput passes its partition index/count to the factory).
      if (node_parallelism > 1) dag.set_partitions(apex_id, node_parallelism);
    } else {
      apex_id = dag.add_operator(node.name, [factory = node.stage] {
        return std::make_unique<BeamApexStage>(factory);
      });
      const bool terminal = graph.consumers_of(node.id).empty();
      const bool partitionable = node.kind == TransformKind::kParDo &&
                                 !node.key_hash && !node.stateful &&
                                 !terminal;
      if (partitionable && node_parallelism > 1) {
        dag.set_partitions(apex_id, node_parallelism);
      }
    }
    beam_to_apex[node.id] = apex_id;

    for (const int input : node.inputs) {
      const auto& producer = graph.node(input);
      apex::CodecFactory codec;
      apex::Locality locality = apex::Locality::kContainerLocal;
      if (producer.output_coder != nullptr) {
        // One container per operator: the hop serializes.
        locality = apex::Locality::kNodeLocal;
        codec = [coder = producer.output_coder] {
          return std::make_unique<BeamTupleCodec>(coder);
        };
      }
      dag.add_stream("s_" + std::to_string(input) + "_" +
                         std::to_string(node.id),
                     apex::PortRef{beam_to_apex.at(input), 0},
                     apex::PortRef{beam_to_apex.at(node.id), 0}, locality,
                     std::move(codec));
    }
  }
  return Status::ok();
}

}  // namespace

Result<PipelineResult> ApexRunner::run(const Pipeline& pipeline) {
  const BeamGraph graph = options_.fuse_stages &&
                                  !pipeline.graph().nodes().empty()
                              ? fuse_graph(pipeline.graph()).graph
                              : pipeline.graph();
  apex::Dag dag;
  if (Status s = translate(graph, options_, dag); !s.is_ok()) return s;

  yarn::ResourceManager rm;
  for (int n = 0; n < options_.cluster_nodes; ++n) {
    rm.add_node("node-" + std::to_string(n),
                yarn::Resource{options_.vcores_per_node,
                               options_.memory_mb_per_node});
  }

  const auto plan = apex::render_physical_plan(dag);
  // The restart hint maps onto YARN application reattempts; the Beam
  // readers are rebuilt per attempt and re-read the bounded input.
  apex::EngineConfig engine_config;
  engine_config.max_attempts = 1 + std::max(0, options_.restart.max_restarts);
  engine_config.restart_backoff = options_.restart.backoff;
  auto metrics = apex::launch_application(rm, dag, engine_config);
  if (!metrics.is_ok()) return metrics.status();

  PipelineResult result;
  result.state = PipelineState::kDone;
  result.duration_ms = metrics.value().gauge("app.duration_ms");
  if (plan.is_ok()) result.execution_plan = plan.value();
  // Unified schema: "operator.<name>.tuples_in" -> per-transform counts.
  constexpr std::string_view kPrefix = "operator.";
  constexpr std::string_view kSuffix = ".tuples_in";
  for (const auto& [name, count] :
       metrics.value().counters_with_prefix(kPrefix)) {
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        !name.ends_with(kSuffix)) {
      continue;
    }
    result.elements_in[name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size())] =
        count;
  }
  return result;
}

Result<std::string> ApexRunner::translate_plan(
    const Pipeline& pipeline) const {
  const BeamGraph graph = options_.fuse_stages &&
                                  !pipeline.graph().nodes().empty()
                              ? fuse_graph(pipeline.graph()).graph
                              : pipeline.graph();
  apex::Dag dag;
  if (Status s = translate(graph, options_, dag); !s.is_ok()) return s;
  return apex::render_physical_plan(dag);
}

}  // namespace dsps::beam
