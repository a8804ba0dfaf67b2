// Shared routing logic: turns a FlowSpec into a pinned fabric path using
// the ECMP hash at every hop. Used by both the flow-level fluid
// simulator and the packet-granular validation simulator so that the two
// fidelity levels route identically.
#pragma once

#include <optional>
#include <vector>

#include "net/flow.h"
#include "topo/fabric.h"

namespace astral::net {

class Router {
 public:
  explicit Router(const topo::Fabric& fabric) : fabric_(fabric) {}

  /// The 5-tuple a spec transmits with (deterministic default source
  /// port unless the spec pins one).
  FiveTuple tuple_for(const FlowSpec& spec) const;

  /// Hash-pinned path from the source NIC port to the destination host,
  /// honoring dual-ToR failover; nullopt when unroutable. One CRC of the
  /// tuple serves every hop (each switch folds in its salt), and each hop
  /// picks from the switch's ECMP candidate span toward the delivery ToR
  /// (Topology::ecmp_ports), built once per (switch, destination); the
  /// last hop is the ToR's live downlink to the host.
  std::optional<std::vector<topo::LinkId>> route(const FlowSpec& spec,
                                                 const FiveTuple& tuple) const;

  const topo::Fabric& fabric() const { return fabric_; }

 private:
  const topo::Fabric& fabric_;
};

}  // namespace astral::net
