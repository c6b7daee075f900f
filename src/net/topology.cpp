#include "net/topology.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

namespace tango::net {

NodeId Topology::add_node(std::string name) {
  names_.push_back(std::move(name));
  adj_.emplace_back();
  return names_.size() - 1;
}

std::size_t Topology::add_link(NodeId a, NodeId b, SimDuration latency,
                               double capacity_gbps) {
  links_.push_back(Link{a, b, latency, capacity_gbps, true});
  const std::size_t idx = links_.size() - 1;
  adj_[a].push_back(idx);
  if (b != a) adj_[b].push_back(idx);
  return idx;
}

void Topology::set_link_state(std::size_t link_index, bool up) {
  links_[link_index].up = up;
}

std::optional<std::size_t> Topology::fail_link_between(NodeId a, NodeId b) {
  auto idx = link_between(a, b);
  if (idx) links_[*idx].up = false;
  return idx;
}

std::vector<NodeId> Topology::neighbors(NodeId n) const {
  std::vector<NodeId> out;
  out.reserve(adj_[n].size());
  for (const std::size_t i : adj_[n]) {
    const auto& l = links_[i];
    if (!l.up) continue;
    // Self-loops appear twice in adj_[n] and thus twice here, matching the
    // historical full-scan behaviour (which pushed both endpoints).
    out.push_back(l.a == n ? l.b : l.a);
  }
  return out;
}

std::optional<std::size_t> Topology::link_between(NodeId a, NodeId b) const {
  if (a >= adj_.size()) return std::nullopt;
  // adj_ lists are in link-index order, so the first hit is the lowest
  // index — the same answer the historical full scan produced.
  for (const std::size_t i : adj_[a]) {
    const auto& l = links_[i];
    if (!l.up) continue;
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return i;
  }
  return std::nullopt;
}

namespace {

std::vector<NodeId> dijkstra(const std::vector<std::vector<std::size_t>>& adj,
                             const std::vector<Link>& links,
                             const std::set<std::size_t>& excluded, NodeId src,
                             NodeId dst) {
  const std::size_t n = adj.size();
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> dist(n, kInf);
  std::vector<NodeId> prev(n, n);
  using Item = std::pair<std::int64_t, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[src] = 0;
  heap.emplace(0, src);
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == dst) break;
    for (const std::size_t i : adj[u]) {
      if (!links[i].up || excluded.count(i) != 0) continue;
      const auto& l = links[i];
      const NodeId v = l.a == u ? l.b : l.a;
      const std::int64_t nd = d + l.latency.ns();
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = u;
        heap.emplace(nd, v);
      }
    }
  }
  if (dist[dst] == kInf) return {};
  std::vector<NodeId> path;
  for (NodeId cur = dst; cur != src; cur = prev[cur]) {
    path.push_back(cur);
    if (prev[cur] == n) return {};
  }
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

std::vector<NodeId> Topology::shortest_path(NodeId src, NodeId dst) const {
  if (src == dst) return {src};
  return dijkstra(adj_, links_, {}, src, dst);
}

std::vector<std::vector<NodeId>> Topology::disjoint_paths(NodeId src, NodeId dst,
                                                          std::size_t k) const {
  std::vector<std::vector<NodeId>> out;
  std::set<std::size_t> used;
  for (std::size_t round = 0; round < k; ++round) {
    auto path = dijkstra(adj_, links_, used, src, dst);
    if (path.empty()) break;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      for (const std::size_t li : adj_[path[i]]) {
        const auto& l = links_[li];
        if ((l.a == path[i] && l.b == path[i + 1]) ||
            (l.b == path[i] && l.a == path[i + 1])) {
          used.insert(li);
        }
      }
    }
    out.push_back(std::move(path));
  }
  return out;
}

}  // namespace tango::net
