// The transform graph runners translate. Each node is one PTransform
// application, tagged with a URN the way PTransformTranslation keeps a
// registry of familiar transforms and uniform resource names.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "beam/coders.hpp"
#include "beam/stage.hpp"

namespace dsps::beam {

enum class TransformKind {
  kRead,
  kParDo,
};

/// Well-known URNs (mirroring beam:transform:*).
namespace urns {
inline constexpr const char* kRead = "beam:transform:read:v1";
/// The ParDo a source expansion inserts to unwrap raw records — rendered as
/// the "Flat Map" operator in the Fig. 13 plan.
inline constexpr const char* kReadExpand = "beam:transform:read_expand:v1";
inline constexpr const char* kParDo = "beam:transform:pardo:v1";
/// A chain of one-to-one ParDos collapsed by the fusion pass
/// (beam/fusion.hpp) into a single bundle-executing stage.
inline constexpr const char* kFused = "beam:transform:fused:v1";
}  // namespace urns

struct TransformNode {
  int id = 0;
  TransformKind kind = TransformKind::kParDo;
  std::string name;  // user-facing transform name
  std::string urn;
  int input = -1;                // the producer's id; -1 for kRead
  StageFactory stage;            // kParDo
  ReaderFactory reader;          // kRead
  /// kRead only: the readers never report end-of-input until the external
  /// source terminates (topic seal). Micro-batch runners must claim from
  /// them incrementally (advance_now) instead of draining in one shot.
  bool unbounded_source = false;
  /// Keyed routing for a stateful ParDo's input edge (null otherwise).
  std::function<std::uint64_t(const Element&)> key_hash;
  /// Coder for this node's output elements (used where a runner serializes).
  CoderPtr output_coder;
  bool stateful = false;
  /// Requested parallelism for this transform (0 = inherit the pipeline
  /// default). A change of parallelism between producer and consumer is a
  /// redistribution point, so the fusion pass treats it as a barrier.
  int parallelism_hint = 0;
};

class BeamGraph {
 public:
  int add_node(TransformNode node) {
    node.id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(node));
    return nodes_.back().id;
  }

  const std::vector<TransformNode>& nodes() const noexcept { return nodes_; }
  const TransformNode& node(int id) const {
    return nodes_.at(static_cast<std::size_t>(id));
  }

  /// Re-tags a node's URN (composite transforms mark their sub-transforms,
  /// e.g. the read expansion's flat map).
  void set_urn(int id, std::string urn) {
    nodes_.at(static_cast<std::size_t>(id)).urn = std::move(urn);
  }

  /// Ids of nodes consuming `id`'s output.
  std::vector<int> consumers_of(int id) const {
    std::vector<int> out;
    for (const auto& node : nodes_) {
      if (node.input == id) out.push_back(node.id);
    }
    return out;
  }

  bool contains_stateful() const {
    for (const auto& node : nodes_) {
      if (node.stateful) return true;
    }
    return false;
  }

 private:
  std::vector<TransformNode> nodes_;
};

}  // namespace dsps::beam
