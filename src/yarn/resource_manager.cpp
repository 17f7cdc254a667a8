#include "yarn/resource_manager.hpp"

#include <iterator>

namespace dsps::yarn {

void ResourceManager::add_node(const NodeId& id, const Resource& capacity) {
  std::lock_guard lock(mutex_);
  const bool inserted = nodes_.emplace(id, Node{.capacity = capacity}).second;
  require(inserted, "duplicate node id");
}

Result<Container> ResourceManager::allocate(const Resource& resource) {
  std::lock_guard lock(mutex_);
  // Pick the live node with the most free vcores (simple balancing).
  auto best = nodes_.end();
  int best_free_vcores = 0;
  for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
    const Resource free = it->second.capacity - it->second.used;
    if (it->second.failed || !fits(resource, free)) continue;
    if (best == nodes_.end() || free.vcores > best_free_vcores) {
      best = it;
      best_free_vcores = free.vcores;
    }
  }
  if (best == nodes_.end()) {
    return Status::resource_exhausted(
        "no node can satisfy the container request");
  }
  best->second.used = best->second.used + resource;
  const Container container{
      .id = next_container_id_++, .node = best->first, .resource = resource};
  granted_.emplace(container.id, container);
  return container;
}

void ResourceManager::release(const Container& container) {
  std::lock_guard lock(mutex_);
  const auto it = granted_.find(container.id);
  if (it == granted_.end()) return;
  Node& node = nodes_.at(it->second.node);
  node.used = node.used - it->second.resource;
  granted_.erase(it);
}

void ResourceManager::fail_node(const NodeId& id) {
  std::lock_guard lock(mutex_);
  Node& node = nodes_.at(id);
  node.failed = true;
  node.used = Resource{0, 0};
  for (auto it = granted_.begin(); it != granted_.end();) {
    it = it->second.node == id ? granted_.erase(it) : std::next(it);
  }
}

Resource ResourceManager::cluster_available() const {
  std::lock_guard lock(mutex_);
  Resource total{0, 0};
  for (const auto& [id, node] : nodes_) {
    if (!node.failed) total = total + (node.capacity - node.used);
  }
  return total;
}

}  // namespace dsps::yarn
