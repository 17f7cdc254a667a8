// YARN-sim: the resource ledger Apex-sim deploys through.
//
// Of Hadoop YARN (§II-D, Fig. 4) Apex-sim needs one thing: a
// ResourceManager that hands out containers — logical bundles of vcores +
// memory tied to a node — from per-node capacity, and takes them back.
// STRAM (Apex's application master) runs inline on the caller's thread and
// books its own container plus one per container group here; the group
// threads themselves belong to the Apex engine.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.hpp"

namespace dsps::yarn {

/// A logical bundle of resources, e.g. {1 vcore, 1024 MB}.
struct Resource {
  int vcores = 1;
  int memory_mb = 1024;

  friend bool operator==(const Resource&, const Resource&) = default;
};

inline Resource operator+(Resource a, const Resource& b) {
  a.vcores += b.vcores;
  a.memory_mb += b.memory_mb;
  return a;
}

inline Resource operator-(Resource a, const Resource& b) {
  a.vcores -= b.vcores;
  a.memory_mb -= b.memory_mb;
  return a;
}

/// True when `a` fits inside `b`.
inline bool fits(const Resource& a, const Resource& b) {
  return a.vcores <= b.vcores && a.memory_mb <= b.memory_mb;
}

using ContainerId = std::uint64_t;
using NodeId = std::string;

/// A granted container: resources reserved on a specific node.
struct Container {
  ContainerId id = 0;
  NodeId node;
  Resource resource;
};

class ResourceManager {
 public:
  ResourceManager() = default;
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  /// Adds a node with the given capacity to the cluster.
  void add_node(const NodeId& id, const Resource& capacity);

  /// Reserves `resource` on the live node with the most free vcores;
  /// ResourceExhausted when no live node can fit it.
  Result<Container> allocate(const Resource& resource);

  /// Returns a container's resources to its node. Releasing a container
  /// twice, or one whose node has failed, is a no-op.
  void release(const Container& container);

  /// Simulates a node crash: the node takes no further allocations and the
  /// containers it hosted are dropped from the ledger.
  void fail_node(const NodeId& id);

  /// Total resources currently free across live nodes. Once every granted
  /// container is released this equals the live nodes' total capacity.
  Resource cluster_available() const;

 private:
  struct Node {
    Resource capacity;
    Resource used{0, 0};
    bool failed = false;
  };

  mutable std::mutex mutex_;
  std::map<NodeId, Node> nodes_;
  std::map<ContainerId, Container> granted_;
  ContainerId next_container_id_ = 1;
};

}  // namespace dsps::yarn
