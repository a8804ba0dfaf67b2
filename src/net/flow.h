// Flow abstractions for the fluid simulator. A flow is one RDMA QP's
// worth of traffic between two GPUs: it enters the fabric on the source
// GPU's rail NIC and leaves through the destination GPU's rail ToR.
#pragma once

#include <cstdint>
#include <vector>

#include "core/units.h"
#include "net/hash.h"
#include "topo/types.h"

namespace astral::net {

using FlowId = std::uint32_t;
inline constexpr FlowId kInvalidFlow = static_cast<FlowId>(-1);

/// What the caller specifies when injecting a flow.
struct FlowSpec {
  topo::NodeId src_host = topo::kInvalidNode;
  topo::NodeId dst_host = topo::kInvalidNode;
  int src_rail = 0;  ///< NIC the flow leaves from.
  int dst_rail = 0;  ///< NIC the flow arrives at.
  core::Bytes size = 0;
  core::Seconds start = 0.0;
  std::uint16_t src_port = 0;  ///< UDP source port (the ECMP knob).
  std::uint64_t tag = 0;       ///< Caller-defined grouping (QP / collective op).
};

/// Runtime state of a flow. Its bytes left and current rate live in
/// FluidSim's dense per-flow drain array instead (FluidSim::remaining and
/// FluidSim::current_rate), so the shard publish and the completion
/// check never touch this struct. Which flows cross which link is kept by
/// the solver alone (net::ShardSolver), compiled from the flows' paths.
struct FlowState {
  FlowSpec spec;
  FiveTuple tuple;
  std::vector<topo::LinkId> path;  ///< Host uplink ... ToR downlink.
  core::Seconds finish = -1.0;  ///< Completion time; <0 while active.
  bool admitted = false;  ///< False when routing failed (unreachable).
  /// True once the event loop admitted it at its start: it then sits in
  /// the active set, not the arrival queue.
  bool started = false;
  /// True when the flow was torn down before completing (its sender
  /// died, or no surviving route existed after a reroute). Aborted flows
  /// hold no fabric bandwidth and never finish (finish stays < 0).
  bool aborted = false;
};

/// Per-link counters accumulated by the simulator; the physical-layer
/// monitors read these (§3.2).
struct LinkStats {
  double bytes_forwarded = 0.0;
  double busy_time = 0.0;       ///< Seconds with nonzero traffic.
  double util_time = 0.0;       ///< Integral of utilization (for averages).
  std::uint64_t ecn_marks = 0;  ///< Packets marked when overloaded.
  std::uint64_t pfc_pauses = 0; ///< Pause frames emitted upstream.
  double peak_overload = 0.0;   ///< Max demand/capacity observed.
};

}  // namespace astral::net
