// Property sweeps over the fabric-parameter grid: structural invariants
// that must hold for every architecture and size combination.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "topo/fabric.h"

namespace astral::topo {
namespace {

// (style, rails, hosts_per_block, blocks_per_pod, pods, dual_tor)
using Params = std::tuple<FabricStyle, int, int, int, int, bool>;

class FabricProperty : public ::testing::TestWithParam<Params> {
 protected:
  FabricParams params() const {
    auto [style, rails, hosts, blocks, pods, dual] = GetParam();
    FabricParams p;
    p.style = style;
    p.rails = rails;
    p.hosts_per_block = hosts;
    p.blocks_per_pod = blocks;
    p.pods = pods;
    p.dual_tor = dual;
    return p;
  }
};

TEST_P(FabricProperty, GpuIndexBijection) {
  Fabric f(params());
  std::set<std::pair<NodeId, int>> seen;
  for (int g = 0; g < f.gpu_count(); ++g) {
    GpuLoc loc = f.gpu(g);
    EXPECT_TRUE(seen.insert({loc.host, loc.rail}).second) << "gpu " << g;
    EXPECT_LT(loc.rail, params().rails);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(f.gpu_count()));
}

TEST_P(FabricProperty, EveryHostHasAllRegisteredUplinks) {
  auto p = params();
  Fabric f(p);
  for (NodeId h : f.topo().hosts()) {
    for (int r = 0; r < p.rails; ++r) {
      for (int s = 0; s < p.sides(); ++s) {
        LinkId up = f.topo().host_uplink(h, r, s);
        ASSERT_NE(up, kInvalidLink);
        EXPECT_EQ(f.topo().link(up).src, h);
        EXPECT_EQ(f.topo().node(f.topo().link(up).dst).kind, NodeKind::Tor);
      }
    }
  }
}

TEST_P(FabricProperty, Tier1And2BandwidthIdentical) {
  Fabric f(params());
  double t1 = f.topo().tier_bandwidth(NodeKind::Host, NodeKind::Tor);
  double t2 = f.topo().tier_bandwidth(NodeKind::Tor, NodeKind::Agg);
  // P2 holds across every style (full-mesh variants preserve aggregate
  // bandwidth; they differ in structure, not capacity).
  EXPECT_GE(t2, t1 * 0.999);
}

TEST_P(FabricProperty, Tier3MatchesWhenPresent) {
  auto p = params();
  Fabric f(p);
  double t2 = f.topo().tier_bandwidth(NodeKind::Tor, NodeKind::Agg);
  double t3 = f.topo().tier_bandwidth(NodeKind::Agg, NodeKind::Core);
  if (p.style == FabricStyle::RailOnly) {
    EXPECT_DOUBLE_EQ(t3, 0.0);
  } else if (p.style == FabricStyle::UBMesh) {
    // No Core tier: dimension 3 is the border-switch full mesh, present
    // exactly when there is more than one Pod to interconnect.
    EXPECT_DOUBLE_EQ(t3, 0.0);
    double mesh = f.topo().tier_bandwidth(NodeKind::Agg, NodeKind::Agg);
    if (p.pods > 1) {
      EXPECT_GT(mesh, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(mesh, 0.0);
    }
  } else {
    EXPECT_NEAR(t3 / t2, 1.0, 1e-9);
  }
}

TEST_P(FabricProperty, SameRailPairsReachableEverywhere) {
  auto p = params();
  Fabric f(p);
  // First GPU of rail 0 vs the farthest same-rail GPU. Rail-only fabrics
  // have no Core tier, so their reach ends at the Pod boundary.
  NodeId a = f.gpu(0).host;
  int last = p.style == FabricStyle::RailOnly
                 ? p.blocks_per_pod * p.hosts_per_block * p.rails - p.rails
                 : f.gpu_count() - p.rails;
  NodeId b = f.gpu(last).host;
  if (a != b) {
    EXPECT_GT(f.topo().distance(a, b), 0);
  }
  if (p.style == FabricStyle::RailOnly && p.pods > 1) {
    EXPECT_EQ(f.topo().distance(a, f.gpu(f.gpu_count() - p.rails).host), -1);
  }
}

TEST_P(FabricProperty, PathsNeverTransitHosts) {
  auto p = params();
  Fabric f(p);
  NodeId a = f.host_at(0, 0, 0);
  NodeId b = f.host_at(p.pods - 1, p.blocks_per_pod - 1, p.hosts_per_block - 1);
  if (f.topo().distance(a, b) < 0) return;  // rail-only cross reach gaps
  for (const auto& path : f.topo().shortest_paths(a, b, 16)) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      NodeId mid = f.topo().link(path[i]).dst;
      EXPECT_NE(f.topo().node(mid).kind, NodeKind::Host);
    }
  }
}

TEST_P(FabricProperty, SwitchDegreesBalanced) {
  auto p = params();
  Fabric f(p);
  // Every Agg of a fabric has the same total down-capacity: balanced
  // designs keep hotspot risk structural, not accidental.
  std::map<NodeId, double> agg_down;
  for (const auto& l : f.topo().links()) {
    if (f.topo().node(l.src).kind == NodeKind::Tor &&
        f.topo().node(l.dst).kind == NodeKind::Agg) {
      agg_down[l.dst] += l.capacity;
    }
  }
  if (agg_down.empty()) return;
  double first = agg_down.begin()->second;
  for (const auto& [agg, cap] : agg_down) EXPECT_NEAR(cap, first, first * 1e-9);
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  auto [style, rails, hosts, blocks, pods, dual] = info.param;
  std::string name = to_string(style);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_r" + std::to_string(rails) + "h" + std::to_string(hosts) + "b" +
         std::to_string(blocks) + "p" + std::to_string(pods) +
         (dual ? "_dual" : "_single");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FabricProperty,
    ::testing::Combine(
        ::testing::Values(FabricStyle::AstralSameRail, FabricStyle::RailOptimized,
                          FabricStyle::Clos, FabricStyle::RailOnly,
                          FabricStyle::UBMesh),
        ::testing::Values(2, 4),        // rails
        ::testing::Values(4, 8),        // hosts per block
        ::testing::Values(2, 4),        // blocks per pod
        ::testing::Values(1, 2),        // pods
        ::testing::Values(true, false)  // dual ToR
        ),
    param_name);

}  // namespace
}  // namespace astral::topo
