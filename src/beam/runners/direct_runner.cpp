#include "beam/runners/direct_runner.hpp"

#include <map>
#include <memory>
#include <vector>

#include "common/clock.hpp"

namespace dsps::beam {

Result<PipelineResult> DirectRunner::run(const Pipeline& pipeline) {
  const BeamGraph& graph = pipeline.graph();
  if (graph.nodes().empty()) {
    return Status::failed_precondition("empty pipeline");
  }

  Stopwatch watch;

  // One executor per non-read node; one reader per read node.
  std::map<int, std::unique_ptr<StageExecutor>> executors;
  std::map<int, std::uint64_t> elements_in;
  std::map<int, std::size_t> bundle_counts;
  for (const auto& node : graph.nodes()) {
    elements_in[node.id] = 0;
    if (node.kind != TransformKind::kRead) {
      executors[node.id] = node.stage();
      executors[node.id]->start();
    }
  }

  // Depth-first push: processing an element at `node` forwards every output
  // to all consumers immediately.
  std::function<void(int, Element&&)> feed = [&](int node_id,
                                                 Element&& element) {
    auto& executor = executors.at(node_id);
    ++elements_in[node_id];
    const auto consumers = graph.consumers_of(node_id);
    const Emit emit = [&](Element&& out) {
      for (const int consumer : consumers) {
        Element copy = out;  // fan-out copies, as a distributed shuffle would
        feed(consumer, std::move(copy));
      }
    };
    executor->process(element, emit);
    if (++bundle_counts[node_id] >= options_.bundle_size) {
      bundle_counts[node_id] = 0;
      executor->bundle_boundary(emit);
    }
  };

  // Drive each source to exhaustion, then finish nodes topologically
  // (builder order is topological).
  for (const auto& node : graph.nodes()) {
    if (node.kind != TransformKind::kRead) continue;
    auto reader = node.reader(/*shard=*/0, /*num_shards=*/1);
    reader->open();
    Element element;
    const auto consumers = graph.consumers_of(node.id);
    while (reader->advance(element)) {
      ++elements_in[node.id];
      for (const int consumer : consumers) {
        Element copy = element;
        feed(consumer, std::move(copy));
      }
    }
    reader->close();
  }
  for (const auto& node : graph.nodes()) {
    if (node.kind == TransformKind::kRead) continue;
    const auto consumers = graph.consumers_of(node.id);
    executors.at(node.id)->finish([&](Element&& out) {
      for (const int consumer : consumers) {
        Element copy = out;
        feed(consumer, std::move(copy));
      }
    });
  }

  PipelineResult result;
  result.state = PipelineState::kDone;
  result.duration_ms = watch.elapsed_ms();
  for (const auto& node : graph.nodes()) {
    result.elements_in[node.name] = elements_in[node.id];
  }
  return result;
}

}  // namespace dsps::beam
