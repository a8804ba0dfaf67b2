// The fabric graph: nodes, directed links, host uplink bookkeeping, and
// destination-rooted shortest-path routing with ECMP candidate sets.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "topo/types.h"

namespace astral::topo {

/// A directed multigraph of hosts and switches. Links are added in pairs
/// (one per direction) by `add_duplex`. Routing uses hop-count shortest
/// paths, which in these Clos-like fabrics coincides with up-down routing;
/// equal-cost next hops form the ECMP candidate set.
class Topology {
 public:
  /// Adds a node and returns its id.
  NodeId add_node(Node node);

  /// Adds a single directed link.
  LinkId add_link(NodeId src, NodeId dst, core::Bps capacity);

  /// Adds both directions with equal capacity; returns {src->dst, dst->src}.
  std::pair<LinkId, LinkId> add_duplex(NodeId a, NodeId b, core::Bps capacity);

  const Node& node(NodeId id) const { return nodes_[id]; }
  Node& node(NodeId id) { return nodes_[id]; }
  const Link& link(LinkId id) const { return links_[id]; }
  Link& link(LinkId id) { return links_[id]; }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  std::span<const Node> nodes() const { return nodes_; }
  std::span<const Link> links() const { return links_; }

  /// Outgoing link ids of a node.
  std::span<const LinkId> out_links(NodeId id) const { return out_[id]; }
  /// Incoming link ids of a node.
  std::span<const LinkId> in_links(NodeId id) const { return in_[id]; }

  /// All host node ids in creation order.
  std::span<const NodeId> hosts() const { return hosts_; }

  /// Registers a host uplink for (rail, side); builders call this so flow
  /// admission can pick the right NIC port.
  void set_host_uplink(NodeId host, int rail, int side, LinkId link);

  /// The uplink a GPU on `rail` of `host` uses via NIC port `side`;
  /// kInvalidLink when that rail/side does not exist (e.g. rail-only
  /// fabrics with a single side).
  LinkId host_uplink(NodeId host, int rail, int side) const;

  /// Number of dual-ToR sides host uplinks were registered with (1 or 2).
  int sides() const { return sides_; }
  /// Number of rails host uplinks were registered with.
  int rails() const { return rails_; }

  /// Marks a link (single direction) up or down and invalidates routes.
  void set_link_state(LinkId id, bool up);

  /// Hop distance of every node to `dst` over up links (-1 where
  /// unreachable), indexed by NodeId: O(nodes) per destination, computed
  /// once and cached with the destination's next-hop table (ecmp_ports).
  /// The span is valid until a node or link is added or a link changes
  /// state.
  std::span<const int> distances(NodeId dst) const {
    const std::vector<int>& dist = route_cache_[dst].dist;
    return dist.empty() ? fill_distances(dst) : dist;
  }

  /// The ECMP candidate set from `from` toward `dst`, as positions in
  /// out_links(from): the up out-links u->v with dist[v] == dist[u] - 1
  /// (dist = distances(dst)), in out_links order. Empty when `from` is
  /// `dst` or cannot reach it. The table fills lazily: a switch's span
  /// toward a destination is built on its first query and kept beside
  /// the destination's distance field, so routing a flow reads one span
  /// per hop and pays the out-link scan once per (switch, destination).
  /// A later query toward the same `dst` may move the table, so the span
  /// is valid only until then (and until a node or link is added or a
  /// link changes state); a reader that queries while it iterates copies
  /// first, as next_hops does. Positions are 16-bit: building the span of
  /// a node with more than 65535 out-links throws std::length_error.
  std::span<const std::uint16_t> ecmp_ports(NodeId from, NodeId dst) const {
    const DestRoutes& r = route_cache_[dst];
    if (r.span_at.empty() || r.span_at[from] == kNoSpan) return fill_ecmp_span(from, dst);
    const std::uint32_t at = r.span_at[from];
    return {r.ports.data() + at + 1, r.ports[at]};
  }

  /// Equal-cost next-hop links from `from` toward destination node `dst`
  /// (ecmp_ports, as link ids). Empty when `dst` is unreachable.
  std::vector<LinkId> next_hops(NodeId from, NodeId dst) const;

  /// Hop distance from `from` to `dst` over up links; -1 if unreachable.
  int distance(NodeId from, NodeId dst) const;

  /// Enumerates every distinct shortest path (as link id sequences) from
  /// src to dst, up to `limit` paths. Used by tests and the path-overlap
  /// failure localizer.
  std::vector<std::vector<LinkId>> shortest_paths(NodeId src, NodeId dst,
                                                  std::size_t limit = 64) const;

  /// Sum of capacities of up links from tier `a` to tier `b` (aggregate
  /// bandwidth between tiers; the paper's "identical aggregated
  /// bandwidth" invariant).
  core::Bps tier_bandwidth(NodeKind a, NodeKind b) const;

  /// Looks up a node id by name; kInvalidNode when absent.
  NodeId find(std::string_view name) const;

 private:
  /// Frees every cached distance field and next-hop table; O(destinations
  /// cached).
  void invalidate_routes();
  /// Computes dst's distance field into its cache entry and returns it.
  std::span<const int> fill_distances(NodeId dst) const;
  /// Builds the ECMP span of (from, dst) into dst's table (empty when
  /// `from` is dst or cannot reach it) and returns it.
  std::span<const std::uint16_t> fill_ecmp_span(NodeId from, NodeId dst) const;

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
  std::vector<std::vector<LinkId>> in_;
  std::vector<NodeId> hosts_;
  std::unordered_map<std::string, NodeId> by_name_;
  // Per node (empty for non-hosts): uplink of (rail, side) at rail*2+side.
  std::vector<std::vector<LinkId>> uplinks_;
  int rails_ = 0;
  int sides_ = 1;

  // One destination's routing state, empty until first asked for.
  struct DestRoutes {
    std::vector<int> dist;  ///< Hops to it from every node.
    /// Per node: kNoSpan until its ECMP span is built, else the offset in
    /// `ports` of its candidate count, which its candidates follow.
    std::vector<std::uint32_t> span_at;
    std::vector<std::uint16_t> ports;  ///< Counts and out_links positions.
  };
  static constexpr std::uint32_t kNoSpan = static_cast<std::uint32_t>(-1);

  // Per destination node; cached_dsts_ lists those with a distance field.
  mutable std::vector<DestRoutes> route_cache_;
  mutable std::vector<NodeId> cached_dsts_;
  mutable std::vector<NodeId> bfs_queue_;  ///< distances() scratch.
};

}  // namespace astral::topo
