#include "topo/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace astral::topo {
namespace {

using core::gbps;

// A tiny diamond: h0 -> {s1, s2} -> h3.
struct Diamond : ::testing::Test {
  Topology topo;
  NodeId h0, s1, s2, h3;
  LinkId l01, l02, l13, l23;

  void SetUp() override {
    h0 = topo.add_node({.kind = NodeKind::Host, .name = "h0"});
    s1 = topo.add_node({.kind = NodeKind::Tor, .name = "s1"});
    s2 = topo.add_node({.kind = NodeKind::Tor, .name = "s2"});
    h3 = topo.add_node({.kind = NodeKind::Host, .name = "h3"});
    l01 = topo.add_duplex(h0, s1, gbps(100)).first;
    l02 = topo.add_duplex(h0, s2, gbps(100)).first;
    l13 = topo.add_duplex(s1, h3, gbps(100)).first;
    l23 = topo.add_duplex(s2, h3, gbps(100)).first;
  }
};

TEST_F(Diamond, DistancesAreHopCounts) {
  EXPECT_EQ(topo.distance(h0, h3), 2);
  EXPECT_EQ(topo.distance(s1, h3), 1);
  EXPECT_EQ(topo.distance(h3, h3), 0);
  EXPECT_EQ(topo.distance(h3, h0), 2);
}

TEST_F(Diamond, NextHopsAreEqualCostSets) {
  auto hops = topo.next_hops(h0, h3);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], l01);
  EXPECT_EQ(hops[1], l02);
  auto final_hop = topo.next_hops(s1, h3);
  ASSERT_EQ(final_hop.size(), 1u);
  EXPECT_EQ(final_hop[0], l13);
}

TEST_F(Diamond, ShortestPathsEnumerateBothRoutes) {
  auto paths = topo.shortest_paths(h0, h3);
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& p : paths) EXPECT_EQ(p.size(), 2u);
}

TEST_F(Diamond, LinkDownReroutes) {
  topo.set_link_state(l01, false);
  EXPECT_EQ(topo.distance(h0, h3), 2);
  auto hops = topo.next_hops(h0, h3);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], l02);
  topo.set_link_state(l02, false);
  EXPECT_EQ(topo.distance(h0, h3), -1);
  EXPECT_TRUE(topo.next_hops(h0, h3).empty());
  topo.set_link_state(l01, true);
  EXPECT_EQ(topo.distance(h0, h3), 2);
}

// A switch's ECMP span holds 16-bit positions into its out-links, so a
// node that routes traffic may have at most 65535 of them: routing
// through a wider one fails loudly instead of wrapping a position.
TEST(Topology, RoutingThroughMoreThan65535OutLinksThrows) {
  Topology topo;
  const NodeId src = topo.add_node({.kind = NodeKind::Host, .name = "src"});
  const NodeId hub = topo.add_node({.kind = NodeKind::Tor, .name = "hub"});
  topo.add_link(src, hub, gbps(100));
  NodeId last = kInvalidNode;
  for (int i = 0; i <= 0xffff; ++i) {
    last = topo.add_node({.kind = NodeKind::Host, .name = ""});
    topo.add_link(hub, last, gbps(100));
  }
  EXPECT_EQ(topo.distance(src, last), 2);
  EXPECT_EQ(topo.next_hops(src, last).size(), 1u);
  EXPECT_THROW(topo.next_hops(hub, last), std::length_error);
}

TEST_F(Diamond, FindByName) {
  EXPECT_EQ(topo.find("s2"), s2);
  EXPECT_EQ(topo.find("nope"), kInvalidNode);
}

TEST_F(Diamond, TierBandwidthSumsDirectedCapacity) {
  // Four duplex host<->tor pairs -> 4 directed links each way.
  EXPECT_DOUBLE_EQ(topo.tier_bandwidth(NodeKind::Host, NodeKind::Tor), gbps(400));
  EXPECT_DOUBLE_EQ(topo.tier_bandwidth(NodeKind::Tor, NodeKind::Host), gbps(400));
  topo.set_link_state(l01, false);
  EXPECT_DOUBLE_EQ(topo.tier_bandwidth(NodeKind::Host, NodeKind::Tor), gbps(300));
}

TEST_F(Diamond, HostUplinkRegistry) {
  topo.set_host_uplink(h0, 0, 0, l01);
  topo.set_host_uplink(h0, 0, 1, l02);
  EXPECT_EQ(topo.host_uplink(h0, 0, 0), l01);
  EXPECT_EQ(topo.host_uplink(h0, 0, 1), l02);
  EXPECT_EQ(topo.host_uplink(h0, 1, 0), kInvalidLink);
  EXPECT_EQ(topo.host_uplink(h3, 0, 0), kInvalidLink);
  EXPECT_EQ(topo.sides(), 2);
}

TEST(Topology, HostsTracked) {
  Topology t;
  NodeId a = t.add_node({.kind = NodeKind::Host, .name = "a"});
  t.add_node({.kind = NodeKind::Tor, .name = "t"});
  NodeId b = t.add_node({.kind = NodeKind::Host, .name = "b"});
  ASSERT_EQ(t.hosts().size(), 2u);
  EXPECT_EQ(t.hosts()[0], a);
  EXPECT_EQ(t.hosts()[1], b);
}

TEST(Topology, ShortestPathLimitRespected) {
  // Two-stage diamond with 4 equal paths; limit caps enumeration.
  Topology t;
  NodeId s = t.add_node({.kind = NodeKind::Host, .name = "s"});
  NodeId d = t.add_node({.kind = NodeKind::Host, .name = "d"});
  NodeId m1 = t.add_node({.kind = NodeKind::Tor, .name = "m1"});
  NodeId m2 = t.add_node({.kind = NodeKind::Tor, .name = "m2"});
  NodeId n1 = t.add_node({.kind = NodeKind::Agg, .name = "n1"});
  NodeId n2 = t.add_node({.kind = NodeKind::Agg, .name = "n2"});
  for (NodeId m : {m1, m2}) {
    t.add_duplex(s, m, gbps(1));
    for (NodeId n : {n1, n2}) t.add_duplex(m, n, gbps(1));
  }
  for (NodeId n : {n1, n2}) t.add_duplex(n, d, gbps(1));
  EXPECT_EQ(t.shortest_paths(s, d).size(), 4u);
  EXPECT_EQ(t.shortest_paths(s, d, 3).size(), 3u);
}

}  // namespace
}  // namespace astral::topo
