#include "beam/fusion.hpp"

#include <map>
#include <memory>
#include <utility>

#include "beam/stage.hpp"
#include "common/status.hpp"

namespace dsps::beam {

namespace {

/// Executes a fused chain of stage executors by direct calls. The emit
/// lambdas are built once at start(): emits_[i] feeds member i, and the
/// final slot forwards to whatever sink the runner passed into the current
/// call — so processing an element costs zero allocations beyond what the
/// member DoFns themselves do.
class FusedStageExecutor final : public StageExecutor {
 public:
  explicit FusedStageExecutor(const std::vector<StageFactory>& factories) {
    members_.reserve(factories.size());
    for (const auto& factory : factories) members_.push_back(factory());
  }

  void start() override {
    for (auto& member : members_) member->start();
    emits_.resize(members_.size() + 1);
    emits_[members_.size()] = [this](Element&& element) {
      (*sink_)(std::move(element));
    };
    for (std::size_t i = members_.size(); i-- > 1;) {
      emits_[i] = [this, i](Element&& element) {
        members_[i]->process(element, emits_[i + 1]);
      };
    }
  }

  void process(const Element& element, const Emit& emit) override {
    sink_ = &emit;
    members_.front()->process(element, emits_[1]);
  }

  void bundle_boundary(const Emit& emit) override {
    sink_ = &emit;
    // In chain order: a flush by member i still flows through i+1..n.
    for (std::size_t i = 0; i < members_.size(); ++i) {
      members_[i]->bundle_boundary(emits_[i + 1]);
    }
  }

  void finish(const Emit& emit) override {
    sink_ = &emit;
    // Finishing member i may emit; those elements are *processed* by the
    // not-yet-finished downstream members before their own finish runs.
    for (std::size_t i = 0; i < members_.size(); ++i) {
      members_[i]->finish(emits_[i + 1]);
    }
  }

 private:
  std::vector<std::unique_ptr<StageExecutor>> members_;
  std::vector<Emit> emits_;
  const Emit* sink_ = nullptr;
};

std::string fused_name(const std::vector<std::string>& members) {
  std::string name = "Fused[";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) name += " + ";
    name += members[i];
  }
  name += "]";
  return name;
}

}  // namespace

bool fusible(const TransformNode& node) {
  return node.kind == TransformKind::kParDo && !node.stateful &&
         !node.key_hash;
}

StageFactory fused_stage(std::vector<StageFactory> members) {
  require(members.size() >= 2, "a fused stage needs at least two members");
  return [members = std::move(members)] {
    return std::make_unique<FusedStageExecutor>(members);
  };
}

FusionResult fuse_graph(const BeamGraph& graph) {
  const auto& nodes = graph.nodes();

  // Consumer lists once, up front (consumers_of is a scan per call).
  std::vector<std::vector<int>> consumers(nodes.size());
  for (const auto& node : nodes) {
    if (node.input >= 0) {
      consumers[static_cast<std::size_t>(node.input)].push_back(node.id);
    }
  }

  // A node may join a chain if it is fusible and not a sink (terminal).
  const auto chainable = [&](int id) {
    return fusible(nodes[static_cast<std::size_t>(id)]) &&
           !consumers[static_cast<std::size_t>(id)].empty();
  };

  // Greedy maximal chains, walking ids in (topological) builder order.
  std::vector<std::vector<int>> groups;
  std::vector<bool> grouped(nodes.size(), false);
  for (const auto& node : nodes) {
    if (grouped[static_cast<std::size_t>(node.id)]) continue;
    std::vector<int> group{node.id};
    grouped[static_cast<std::size_t>(node.id)] = true;
    if (chainable(node.id)) {
      int tail = node.id;
      while (true) {
        const auto& outs = consumers[static_cast<std::size_t>(tail)];
        // Multi-consumer output: fan-out is a barrier.
        if (outs.size() != 1) break;
        const int next = outs.front();
        if (!chainable(next)) break;
        // A parallelism change between two transforms is a redistribution.
        if (nodes[static_cast<std::size_t>(next)].parallelism_hint !=
            nodes[static_cast<std::size_t>(tail)].parallelism_hint) {
          break;
        }
        group.push_back(next);
        grouped[static_cast<std::size_t>(next)] = true;
        tail = next;
      }
    }
    groups.push_back(std::move(group));
  }

  // Rebuild the graph, one node per group. Groups are headed in ascending
  // id order, so every producer's group is emitted before its consumers'.
  FusionResult result;
  result.original_node_count = nodes.size();
  std::map<int, int> old_to_new;
  for (const auto& group : groups) {
    const TransformNode& head = nodes[static_cast<std::size_t>(group.front())];
    TransformNode fused;
    std::vector<std::string> member_names;
    if (group.size() == 1) {
      fused = head;
    } else {
      const TransformNode& last =
          nodes[static_cast<std::size_t>(group.back())];
      std::vector<StageFactory> factories;
      factories.reserve(group.size());
      member_names.reserve(group.size());
      for (const int member : group) {
        factories.push_back(nodes[static_cast<std::size_t>(member)].stage);
        member_names.push_back(nodes[static_cast<std::size_t>(member)].name);
      }
      fused.kind = TransformKind::kParDo;
      fused.name = fused_name(member_names);
      fused.urn = urns::kFused;
      fused.stage = fused_stage(std::move(factories));
      // The chain's externally visible coder is the tail's output: interior
      // boundaries never re-encode.
      fused.output_coder = last.output_coder;
      fused.parallelism_hint = head.parallelism_hint;
    }
    if (head.input >= 0) fused.input = old_to_new.at(head.input);
    const int new_id = result.graph.add_node(std::move(fused));
    for (const int member : group) old_to_new[member] = new_id;
    if (group.size() > 1) {
      result.stages.push_back(
          FusedStageInfo{.node_id = new_id, .members = std::move(member_names)});
    }
  }
  return result;
}

}  // namespace dsps::beam
