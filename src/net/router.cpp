#include "net/router.h"

#include <algorithm>

namespace astral::net {

namespace {
// Deterministic default source port for a flow: spreads flows of one
// src-dst pair across ports (§2.1 footnote, step 1) without an RNG so
// repeated runs pick identical paths.
std::uint16_t default_port(const FlowSpec& s) {
  std::uint64_t x = (static_cast<std::uint64_t>(s.src_host) << 32) ^
                    (static_cast<std::uint64_t>(s.dst_host) << 16) ^
                    (s.tag * 0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(s.src_rail) << 8) ^
                    static_cast<std::uint64_t>(s.dst_rail);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 29;
  return static_cast<std::uint16_t>(1024 + (x % 60000));
}
}  // namespace

FiveTuple Router::tuple_for(const FlowSpec& spec) const {
  FiveTuple t;
  t.src_ip = spec.src_host;
  t.dst_ip = spec.dst_host;
  t.src_port = spec.src_port != 0 ? spec.src_port : default_port(spec);
  return t;
}

std::optional<std::vector<topo::LinkId>> Router::route(const FlowSpec& spec,
                                                       const FiveTuple& tuple) const {
  const topo::Topology& topo = fabric_.topo();
  if (spec.src_host == spec.dst_host) return std::nullopt;

  // Every hop hashes the same tuple, and the switch salt folds in after
  // the linear CRC stage: one CRC serves the whole path.
  const std::uint16_t crc = EcmpHash::crc(tuple);
  const int sides = topo.sides();
  const auto& dst_node = topo.node(spec.dst_host);

  // The NIC binds the rail; Clos fabrics scramble which ToR that rail
  // lands on per host (see Fabric::build_tier1).
  auto tor_rail_for = [&](const topo::Node& host, int rail) {
    if (fabric_.params().style == topo::FabricStyle::Clos) {
      return (rail + host.index) % fabric_.params().rails;
    }
    return rail;
  };

  int s1 = sides > 1 ? EcmpHash::pick(crc, spec.src_host * 2654435761u, sides) : 0;
  topo::LinkId first = topo.host_uplink(spec.src_host, spec.src_rail, s1);
  if (first == topo::kInvalidLink) {
    s1 = 0;
    first = topo.host_uplink(spec.src_host, spec.src_rail, 0);
  }
  // Dual-ToR failover (P3): if the hashed side's uplink or ToR is dead,
  // the NIC's other port carries the rail.
  if (sides > 1 && (first == topo::kInvalidLink || !topo.link(first).up)) {
    s1 = 1 - s1;
    first = topo.host_uplink(spec.src_host, spec.src_rail, s1);
  }
  if (first == topo::kInvalidLink || !topo.link(first).up) return std::nullopt;
  topo::NodeId cur = topo.link(first).dst;

  // Destination ToR: same-rail flows stay in the plane (side) they
  // entered; cross-rail flows pick the arrival side by hash.
  const int dst_tor_rail = tor_rail_for(dst_node, spec.dst_rail);
  int s2 = spec.src_rail == spec.dst_rail
               ? s1
               : (sides > 1 ? EcmpHash::pick(crc, spec.dst_host * 2654435761u, sides) : 0);
  // A delivery plane works only if the ToR is reachable from the source
  // side AND still owns a live *direct* downlink to the host (distance
  // 1). A dead ToR->host link strands the plane even when the spine can
  // reach the ToR: the shortest path would then detour back up through
  // the aggregation tier, and the single appended last hop would leave
  // the path dangling mid-fabric. Each destination's distance field is
  // looked up once.
  const std::span<const int> to_dst = topo.distances(spec.dst_host);
  std::span<const int> to_target;
  auto plane_ok = [&](topo::NodeId tor) {
    if (tor == topo::kInvalidNode || to_dst[tor] != 1) return false;
    to_target = topo.distances(tor);
    return to_target[cur] >= 0;
  };
  topo::NodeId target = fabric_.tor_at(dst_node.pod, dst_node.block, dst_tor_rail,
                                       std::min(s2, sides - 1));
  if (!plane_ok(target)) {
    // Plane unreachable or its host downlink is dead; try the other side.
    if (sides > 1) {
      target = fabric_.tor_at(dst_node.pod, dst_node.block, dst_tor_rail, 1 - s2);
    }
    if (!plane_ok(target)) return std::nullopt;
  }

  // Uplink, one hashed ECMP pick per step of the distance field, each
  // from the switch's candidate span toward the delivery ToR, then the
  // downlink.
  std::vector<topo::LinkId> path;
  path.reserve(static_cast<std::size_t>(to_target[cur]) + 2);
  path.push_back(first);
  while (cur != target) {
    const std::span<const std::uint16_t> ports = topo.ecmp_ports(cur, target);
    if (ports.empty()) return std::nullopt;
    const int k = EcmpHash::pick(crc, cur * 0x85ebca6bu, static_cast<int>(ports.size()));
    path.push_back(topo.out_links(cur)[ports[static_cast<std::size_t>(k)]]);
    cur = topo.link(path.back()).dst;
  }
  // The delivery ToR's first live direct downlink to the host, which
  // plane_ok guarantees; found by a scan, so a host destination keeps no
  // next-hop table beside its distance field.
  for (topo::LinkId lid : topo.out_links(target)) {
    const topo::Link& l = topo.link(lid);
    if (l.up && l.dst == spec.dst_host) {
      path.push_back(lid);
      break;
    }
  }
  return path;
}

}  // namespace astral::net
