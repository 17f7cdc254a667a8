// Graph fusion: the plan-quality optimization production Beam runners apply
// and the era's runners the paper measured did not.
//
// The pass greedily collapses maximal chains of one-to-one element-wise
// ParDos into a single composite stage whose process_element drives the
// whole chain by direct calls — no channel hop, no re-encode at the fused
// boundaries. Fusion stops at every point where the dataflow genuinely
// changes shape:
//
//   * sources            (readers stay their own operator)
//   * sinks              (terminal transforms; the writer keeps its own
//                         bundle/flush cadence)
//   * GroupByKey / any keyed redistribution (key_hash set)
//   * stateful ParDos    (keyed routing owns their state placement)
//   * parallelism changes (differing parallelism_hint = redistribution)
//   * multi-consumer outputs (a fan-out point must materialize its output
//                         once per consumer)
//
// The rewrite is opt-in (`fuse_stages` on the Flink, Spark and Apex runner
// options): the default unfused translation is the paper-faithful plan the
// figures reproduce.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "beam/graph.hpp"

namespace dsps::beam {

/// One fused chain in the rewritten graph.
struct FusedStageInfo {
  /// Node id inside FusionResult::graph.
  int node_id = 0;
  /// Original transform names, in chain order.
  std::vector<std::string> members;
};

struct FusionResult {
  BeamGraph graph;
  /// Only chains with >= 2 members; singletons pass through untouched.
  std::vector<FusedStageInfo> stages;
  std::size_t original_node_count = 0;

  std::size_t node_count() const { return graph.nodes().size(); }
  std::size_t nodes_eliminated() const {
    return original_node_count - node_count();
  }
};

/// True when the pass may place `node` inside a fused chain: an element-wise
/// ParDo with a single input and no keyed routing or state. (Being a chain
/// *interior* additionally requires a single consumer; being a chain member
/// at all requires not being terminal — the pass checks both.)
bool fusible(const TransformNode& node);

/// A composite stage executing `members` back to back by direct calls.
/// Elements emitted by member i feed member i+1's process() synchronously;
/// bundle boundaries and finish cascade down the chain in order.
StageFactory fused_stage(std::vector<StageFactory> members);

/// Rewrites `graph`, fusing maximal eligible chains. Node ids are
/// renumbered; relative (topological) order is preserved.
FusionResult fuse_graph(const BeamGraph& graph);

/// Human-readable one-line-per-stage summary (plan dumps, bench logs).
std::string describe(const FusionResult& result);

}  // namespace dsps::beam
