// Network topology graph: switches as nodes, links with latencies and
// up/down state, shortest-path routing, and link-failure injection for the
// network-wide experiments (Fig 10's LF scenario).
//
// Adjacency is indexed per node (each node records the links that touch
// it, in link-index order) so neighbor queries and routing cost degree
// work, not a scan of every link in the fabric — the difference between
// O(V log V) and O(V·L) Dijkstra on the 1000-switch topologies
// workload::TopologyGen generates.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include <cstdint>

#include "common/types.h"

namespace tango::net {

using NodeId = std::size_t;

/// Deterministic port number a link occupies on each of its endpoints
/// (simulated switches have a small fixed port count; one link = one port).
inline std::uint16_t port_for_link(std::size_t link_index) {
  return static_cast<std::uint16_t>((link_index % 7) + 1);
}

struct Link {
  NodeId a = 0;
  NodeId b = 0;
  SimDuration latency = micros(50);
  double capacity_gbps = 10.0;
  bool up = true;
};

class Topology {
 public:
  NodeId add_node(std::string name);
  /// Returns the link index.
  std::size_t add_link(NodeId a, NodeId b, SimDuration latency = micros(50),
                       double capacity_gbps = 10.0);

  void set_link_state(std::size_t link_index, bool up);
  /// Fails the first up-link between a and b; returns its index if found.
  std::optional<std::size_t> fail_link_between(NodeId a, NodeId b);

  [[nodiscard]] std::size_t node_count() const { return names_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const std::string& name(NodeId n) const { return names_[n]; }
  [[nodiscard]] const Link& link(std::size_t i) const { return links_[i]; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  /// Up-neighbors of n.
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId n) const;

  /// Latency-weighted shortest path (Dijkstra) over up links; empty if
  /// unreachable. Path includes both endpoints.
  [[nodiscard]] std::vector<NodeId> shortest_path(NodeId src, NodeId dst) const;

  /// Up to k link-disjoint shortest paths (greedy: remove used links and
  /// re-run). Used by the max-min fair TE allocator.
  [[nodiscard]] std::vector<std::vector<NodeId>> disjoint_paths(NodeId src, NodeId dst,
                                                                std::size_t k) const;

  /// Index of an up link between two adjacent nodes, if any (lowest link
  /// index wins, matching historical scan order). None for a node the
  /// topology does not have.
  [[nodiscard]] std::optional<std::size_t> link_between(NodeId a, NodeId b) const;

  /// Indices of all links touching `n` (up or down), in link-index order.
  [[nodiscard]] const std::vector<std::size_t>& links_of(NodeId n) const {
    return adj_[n];
  }

 private:
  std::vector<std::string> names_;
  std::vector<Link> links_;
  /// Per-node link-index lists; maintained by add_node/add_link.
  std::vector<std::vector<std::size_t>> adj_;
};

}  // namespace tango::net
