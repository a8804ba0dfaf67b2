// The fabric graph: nodes, directed links, host uplink bookkeeping, and
// destination-rooted shortest-path routing with ECMP candidate sets.
#pragma once

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
  /// unreachable), indexed by NodeId. Only distances are cached (O(nodes)
  /// per destination, computed once); next hops are derived from them on
  /// demand by for_each_next_hop. The span is valid until a node or link
  /// is added or a link changes state.
  std::span<const int> distances(NodeId dst) const;

  /// Calls `f(link)` for each equal-cost next hop from `from` toward the
  /// destination whose distance field is `dist` (from distances()): the
  /// up out-links u->v with dist[v] == dist[u] - 1, in out_links order,
  /// which is the ECMP candidate set. Stops once `f` returns true. Visits
  /// nothing when `from` is the destination or cannot reach it.
  template <class F>
  void for_each_next_hop(NodeId from, std::span<const int> dist, F&& f) const {
    if (dist[from] <= 0) return;
    const int want = dist[from] - 1;
    for (LinkId lid : out_[from]) {
      const Link& l = links_[lid];
      if (l.up && dist[l.dst] == want && f(lid)) return;
    }
  }

  /// Equal-cost next-hop links from `from` toward destination node `dst`
  /// (for_each_next_hop, collected). Empty when `dst` is unreachable.
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
  /// Frees every cached distance field; O(destinations cached).
  void invalidate_routes();

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

  // Per destination node: hops to it from every node, empty until
  // computed. cached_dsts_ lists the nonempty entries.
  mutable std::vector<std::vector<int>> route_cache_;
  mutable std::vector<NodeId> cached_dsts_;
  mutable std::vector<NodeId> bfs_queue_;  ///< distances() scratch.
};

}  // namespace astral::topo
