#include "beam/runners/flink_runner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "beam/fusion.hpp"
#include "flink/environment.hpp"
#include "runtime/invoker.hpp"
#include "runtime/metrics.hpp"

namespace dsps::beam {

namespace {

/// Source function pumping a Beam reader into the Flink-sim pipeline.
class BeamSourceFunction final : public flink::SourceFunction {
 public:
  explicit BeamSourceFunction(ReaderFactory factory)
      : factory_(std::move(factory)) {}

  void open(const flink::RuntimeContext& context) override {
    reader_ = factory_(context.subtask_index, context.parallelism);
    reader_->open();
  }

  void run(flink::SourceContext& context) override {
    // The source carries its own fault site: when fusion chains the whole
    // pipeline into this vertex, the per-vertex task probes vanish
    // and this becomes the only kOperatorThrow point on the job — a fault
    // here models a throw anywhere in the chain, replayed by the runner's
    // whole-job restart.
    runtime::OperatorInvoker invoker("beam.source");
    Element element;
    {
      // One user_fn scope around the whole loop: the reader's fetches and
      // the chain's queue waits nest inside it as their own stages.
      runtime::ScopedStage loop_scope(runtime::Stage::kUserFn,
                                      invoker.operator_id());
      while (!context.cancelled() && reader_->advance(element)) {
        invoker.maybe_fault();
        context.collect(flink::make_elem<Element>(std::move(element)));
        element = Element{};
      }
    }
    reader_->close();
  }

 private:
  ReaderFactory factory_;
  std::unique_ptr<SourceReader> reader_;
};

/// Operator wrapping a StageExecutor; ends bundles every `bundle_size`
/// elements and finishes the stage at close().
///
/// Element boxes are recycled: once the executor is done with an input, a
/// box this operator solely owns becomes the spare that the next output is
/// move-assigned into, so a 1:1 stage allocates no box of its own and only
/// the source does. A box that another consumer still holds (a producer
/// with several out-edges shares one box among them) is never written.
class BeamStageOperator final : public flink::StreamOperator {
 public:
  BeamStageOperator(StageFactory factory, std::size_t bundle_size)
      : factory_(std::move(factory)), bundle_size_(bundle_size) {}

  void open(const flink::RuntimeContext& /*context*/) override {
    executor_ = factory_();
    executor_->start();
    emit_ = [this](Element&& produced) {
      if (!spare_) {
        out_->collect(flink::make_elem<Element>(std::move(produced)));
        return;
      }
      *static_cast<Element*>(spare_.get()) = std::move(produced);
      out_->collect(std::move(spare_));  // leaves spare_ empty
    };
  }

  void process(flink::Elem element, flink::Collector& out) override {
    out_ = &out;
    executor_->process(flink::elem_cast<Element>(element), emit_);
    if (++since_bundle_ >= bundle_size_) {
      since_bundle_ = 0;
      executor_->bundle_boundary(emit_);
    }
    recycle(std::move(element));
  }

  void close(flink::Collector& out) override {
    if (!executor_) return;
    out_ = &out;
    executor_->finish(emit_);
  }

 private:
  void recycle(flink::Elem&& box) {
    if (box.use_count() != 1) return;
    // use_count() is only a relaxed load. Copying the box and dropping the
    // copy ends in an acquire-release decrement of the same count, which
    // synchronizes with every other holder's release decrement: their reads
    // of the element happen before our writes. (An acquire fence would do
    // the same, but ThreadSanitizer does not model fences.)
    (void)flink::Elem(box);
    spare_ = std::move(box);
  }

  StageFactory factory_;
  std::size_t bundle_size_;
  std::unique_ptr<StageExecutor> executor_;
  std::size_t since_bundle_ = 0;
  flink::Collector* out_ = nullptr;
  Emit emit_;
  flink::Elem spare_;  // a solely owned box, free for the next output
};

const char* translated_name(const TransformNode& node) {
  if (node.kind == TransformKind::kRead) {
    return "PTransformTranslation.UnknownRawPTransform";
  }
  if (node.urn == urns::kFused) return node.name.c_str();
  return node.urn == urns::kReadExpand ? "Flat Map"
                                       : "ParDoTranslation.RawParDo";
}

/// Builds the Flink-sim job for the (possibly fused) Beam graph.
Status translate(const BeamGraph& graph, const FlinkRunnerOptions& options,
                 flink::StreamExecutionEnvironment& env) {
  if (graph.nodes().empty()) {
    return Status::failed_precondition("empty pipeline");
  }
  env.set_parallelism(options.parallelism);
  // The paper-faithful translation runs one operator per transform: no
  // chaining (Fig. 13's plan shape). When the fusion pass is opted in, the
  // plan is already collapsed, so let the engine's own chaining glue the
  // fused stage to its source and sink — direct calls end to end, like the
  // native pipeline. What remains of the slowdown is then the structural
  // cost of the abstraction (element boxing), not operator scheduling.
  if (!options.fuse_stages) env.disable_operator_chaining();

  std::map<int, int> beam_to_flink;
  std::map<int, int> beam_parallelism;
  for (const auto& node : graph.nodes()) {
    flink::StreamNode flink_node;
    flink_node.name = translated_name(node);
    // The node's parallelism hint wins over the pipeline default — the
    // runner maps it onto Flink's native per-operator parallelism.
    const int node_parallelism = node.parallelism_hint > 0
                                     ? node.parallelism_hint
                                     : options.parallelism;
    flink_node.parallelism = node_parallelism;
    beam_parallelism[node.id] = node_parallelism;
    if (node.kind == TransformKind::kRead) {
      flink_node.kind = flink::NodeKind::kSource;
      flink_node.make_source = [factory = node.reader] {
        return std::make_unique<BeamSourceFunction>(factory);
      };
    } else {
      flink_node.kind = flink::NodeKind::kOperator;
      flink_node.make_operator = [factory = node.stage,
                                  bundle = options.bundle_size] {
        return std::make_unique<BeamStageOperator>(factory, bundle);
      };
    }
    const int flink_id = env.add_node(std::move(flink_node));
    beam_to_flink[node.id] = flink_id;

    if (node.kind == TransformKind::kRead) continue;
    flink::StreamEdge edge;
    edge.from = beam_to_flink.at(node.input);
    edge.to = flink_id;
    if (node.key_hash) {
      edge.mode = flink::PartitionMode::kHash;
      edge.key_fn = [hash = node.key_hash](const flink::Elem& elem) {
        return hash(flink::elem_cast<Element>(elem));
      };
    } else if (beam_parallelism.at(node.input) != node_parallelism) {
      // A parallelism change is a redistribution point: round-robin the
      // producer's output over the consumer's subtasks.
      edge.mode = flink::PartitionMode::kRebalance;
    } else {
      edge.mode = flink::PartitionMode::kForward;
    }
    env.add_edge(std::move(edge));
  }
  return Status::ok();
}

/// One job execution: a fresh environment and fresh source readers.
Result<PipelineResult> run_once(const BeamGraph& graph,
                                const FlinkRunnerOptions& options) {
  flink::StreamExecutionEnvironment env;
  if (Status s = translate(graph, options, env); !s.is_ok()) return s;
  const std::string plan = env.execution_plan();
  auto job = env.execute("beam-flink-job");
  if (!job.is_ok()) return job.status();

  PipelineResult result;
  result.state = PipelineState::kDone;
  result.duration_ms = job.value().duration_ms;
  result.execution_plan = plan;
  // Translation adds job vertices in Beam-node order, so vertex id i is
  // transform i; counts come from the unified metrics snapshot.
  const auto& nodes = graph.nodes();
  for (std::size_t i = 0;
       i < nodes.size() && i < job.value().vertex_names.size(); ++i) {
    result.elements_in[nodes[i].name] =
        job.value().records_in(static_cast<int>(i));
  }
  return result;
}

/// The graph the runner actually translates: fused when opted in.
BeamGraph translated_graph(const Pipeline& pipeline,
                           const FlinkRunnerOptions& options) {
  if (options.fuse_stages && !pipeline.graph().nodes().empty()) {
    return fuse_graph(pipeline.graph()).graph;
  }
  return pipeline.graph();
}

}  // namespace

Result<PipelineResult> FlinkRunner::run(const Pipeline& pipeline) {
  const BeamGraph graph = translated_graph(pipeline, options_);
  // Fixed-delay restart strategy: each attempt rebuilds the translated job
  // from the Beam graph (new environment, new readers) and re-executes it
  // from scratch — how Flink restarts a job that has no checkpoint state.
  const runtime::RestartPolicy policy{
      .max_attempts = 1 + std::max(0, options_.restart.max_restarts),
      .backoff = options_.restart.backoff};
  Result<PipelineResult> outcome = Status::internal("job never ran");
  const Status final_status = runtime::run_supervised(
      policy,
      [&](int /*attempt*/) -> Status {
        auto attempt_result = run_once(graph, options_);
        if (!attempt_result.is_ok()) return attempt_result.status();
        outcome = std::move(attempt_result);
        return Status::ok();
      },
      [](int /*attempt*/, const Status& /*error*/) {
        runtime::MetricsRegistry::global()
            .counter("flink.recovery.restarts")
            .add(1);
      });
  if (!final_status.is_ok()) return final_status;
  return outcome;
}

Result<std::string> FlinkRunner::translate_plan(
    const Pipeline& pipeline) const {
  flink::StreamExecutionEnvironment env;
  const BeamGraph graph = translated_graph(pipeline, options_);
  if (Status s = translate(graph, options_, env); !s.is_ok()) return s;
  return env.execution_plan();
}

}  // namespace dsps::beam
