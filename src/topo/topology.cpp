#include "topo/topology.h"

#include <algorithm>
#include <stdexcept>

namespace astral::topo {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::Host: return "host";
    case NodeKind::Tor: return "tor";
    case NodeKind::Agg: return "agg";
    case NodeKind::Core: return "core";
  }
  return "?";
}

NodeId Topology::add_node(Node node) {
  node.id = static_cast<NodeId>(nodes_.size());
  if (!node.name.empty()) by_name_[node.name] = node.id;
  if (node.kind == NodeKind::Host) hosts_.push_back(node.id);
  nodes_.push_back(std::move(node));
  out_.emplace_back();
  in_.emplace_back();
  uplinks_.emplace_back();
  route_cache_.emplace_back();
  invalidate_routes();
  return nodes_.back().id;
}

LinkId Topology::add_link(NodeId src, NodeId dst, core::Bps capacity) {
  Link l;
  l.id = static_cast<LinkId>(links_.size());
  l.src = src;
  l.dst = dst;
  l.capacity = capacity;
  links_.push_back(l);
  out_[src].push_back(l.id);
  in_[dst].push_back(l.id);
  invalidate_routes();
  return l.id;
}

std::pair<LinkId, LinkId> Topology::add_duplex(NodeId a, NodeId b, core::Bps capacity) {
  LinkId ab = add_link(a, b, capacity);
  LinkId ba = add_link(b, a, capacity);
  return {ab, ba};
}

void Topology::set_host_uplink(NodeId host, int rail, int side, LinkId link) {
  rails_ = std::max(rails_, rail + 1);
  sides_ = std::max(sides_, side + 1);
  auto& v = uplinks_.at(host);
  std::size_t slot = static_cast<std::size_t>(rail) * 2 + static_cast<std::size_t>(side);
  if (v.size() <= slot) v.resize(slot + 1, kInvalidLink);
  v[slot] = link;
}

LinkId Topology::host_uplink(NodeId host, int rail, int side) const {
  if (host >= uplinks_.size()) return kInvalidLink;
  const std::vector<LinkId>& v = uplinks_[host];
  std::size_t slot = static_cast<std::size_t>(rail) * 2 + static_cast<std::size_t>(side);
  if (slot >= v.size()) return kInvalidLink;
  return v[slot];
}

void Topology::set_link_state(LinkId id, bool up) {
  if (links_[id].up != up) {
    links_[id].up = up;
    invalidate_routes();
  }
}

void Topology::invalidate_routes() {
  for (NodeId d : cached_dsts_) route_cache_[d] = DestRoutes{};
  cached_dsts_.clear();
}

std::span<const int> Topology::fill_distances(NodeId dst) const {
  std::vector<int>& dist = route_cache_[dst].dist;
  dist.assign(nodes_.size(), -1);
  cached_dsts_.push_back(dst);

  // BFS from dst over reversed up links yields the hop distance of every
  // node to dst. Hosts never forward transit traffic, so they are only
  // expanded when they are the destination itself.
  bfs_queue_.clear();
  dist[dst] = 0;
  bfs_queue_.push_back(dst);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId v = bfs_queue_[head];
    if (nodes_[v].kind == NodeKind::Host && v != dst) continue;
    for (LinkId lid : in_[v]) {
      const Link& l = links_[lid];
      if (!l.up) continue;
      if (dist[l.src] == -1) {
        dist[l.src] = dist[v] + 1;
        bfs_queue_.push_back(l.src);
      }
    }
  }
  return dist;
}

std::span<const std::uint16_t> Topology::fill_ecmp_span(NodeId from, NodeId dst) const {
  const std::span<const int> dist = distances(dst);
  DestRoutes& r = route_cache_[dst];
  if (r.span_at.empty()) r.span_at.assign(nodes_.size(), kNoSpan);
  const std::span<const LinkId> out = out_[from];
  if (out.size() > 0xffff) {
    throw std::length_error("Topology: a node with more than 65535 out-links routes traffic");
  }
  const auto at = static_cast<std::uint32_t>(r.ports.size());
  r.ports.push_back(0);
  if (dist[from] > 0) {
    const int want = dist[from] - 1;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const Link& l = links_[out[i]];
      if (l.up && dist[l.dst] == want) r.ports.push_back(static_cast<std::uint16_t>(i));
    }
  }
  r.ports[at] = static_cast<std::uint16_t>(r.ports.size() - at - 1);
  r.span_at[from] = at;
  return {r.ports.data() + at + 1, r.ports[at]};
}

std::vector<LinkId> Topology::next_hops(NodeId from, NodeId dst) const {
  std::vector<LinkId> hops;
  const std::span<const LinkId> out = out_[from];
  for (std::uint16_t port : ecmp_ports(from, dst)) hops.push_back(out[port]);
  return hops;
}

int Topology::distance(NodeId from, NodeId dst) const { return distances(dst)[from]; }

std::vector<std::vector<LinkId>> Topology::shortest_paths(NodeId src, NodeId dst,
                                                          std::size_t limit) const {
  std::vector<std::vector<LinkId>> result;
  if (distances(dst)[src] < 0) return result;
  // DFS over the next-hop DAG; depth bounded by the shortest-path length.
  // Each level iterates a copy of its span (next_hops): the recursion
  // fills more spans toward dst, which may move the table.
  std::vector<LinkId> stack;
  auto dfs = [&](auto&& self, NodeId at) -> void {
    if (result.size() >= limit) return;
    if (at == dst) {
      result.push_back(stack);
      return;
    }
    for (LinkId lid : next_hops(at, dst)) {
      stack.push_back(lid);
      self(self, links_[lid].dst);
      stack.pop_back();
      if (result.size() >= limit) return;
    }
  };
  dfs(dfs, src);
  return result;
}

core::Bps Topology::tier_bandwidth(NodeKind a, NodeKind b) const {
  core::Bps total = 0;
  for (const Link& l : links_) {
    if (l.up && nodes_[l.src].kind == a && nodes_[l.dst].kind == b) total += l.capacity;
  }
  return total;
}

NodeId Topology::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kInvalidNode : it->second;
}

}  // namespace astral::topo
