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

  /// One streaming window's reads, as Beam's ApexReadUnboundedInputOperator
  /// does them: the first read may wait for input, every later one takes
  /// only what is ready, and an idle source ends the window so its tuples
  /// leave the container's output batchers now instead of waiting for the
  /// budget to fill.
  bool emit_tuples(std::size_t budget) override {
    Element element;
    if (!reader_->advance(element)) return false;
    for (std::size_t emitted = 1;; ++emitted) {
      emit(out_, apex::make_tuple_of<Element>(std::move(element)));
      element = Element{};
      if (emitted >= budget) return true;
      const ReadNow state = reader_->advance_now(element);
      if (state != ReadNow::kRecord) return state == ReadNow::kIdle;
    }
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
    emit_ = [this](Element&& produced) {
      emit(out_, apex::make_tuple_of<Element>(std::move(produced)));
    };
  }

  void end_stream() override {
    if (executor_) executor_->finish(emit_);
  }

 private:
  void on_tuple(const apex::Tuple& tuple) {
    executor_->process(apex::tuple_cast<Element>(tuple), emit_);
    // One-element bundles: buffering DoFns (the Kafka writer) flush here.
    executor_->bundle_boundary(emit_);
  }

  StageFactory factory_;
  int in_;
  int out_;
  std::unique_ptr<StageExecutor> executor_;
  Emit emit_;
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
      const bool partitionable = !node.key_hash && !node.stateful &&
                                 !terminal;
      if (partitionable && node_parallelism > 1) {
        dag.set_partitions(apex_id, node_parallelism);
      }
    }
    beam_to_apex[node.id] = apex_id;
    if (node.kind == TransformKind::kRead) continue;

    const auto& producer = graph.node(node.input);
    apex::CodecFactory codec;
    apex::Locality locality = apex::Locality::kContainerLocal;
    if (producer.output_coder != nullptr) {
      // One container per operator: the hop serializes.
      locality = apex::Locality::kNodeLocal;
      codec = [coder = producer.output_coder] {
        return std::make_unique<BeamTupleCodec>(coder);
      };
    }
    dag.add_stream("s_" + std::to_string(node.input) + "_" +
                       std::to_string(node.id),
                   apex::PortRef{beam_to_apex.at(node.input), 0},
                   apex::PortRef{apex_id, 0}, locality, std::move(codec));
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

  // The paper's cluster: two worker nodes.
  yarn::ResourceManager rm;
  rm.add_node("node-0", yarn::Resource{64, 65536});
  rm.add_node("node-1", yarn::Resource{64, 65536});

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
