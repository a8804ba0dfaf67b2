// Topology-zoo shootout: runs every FabricStyle member through the same
// adversarial campaigns and emits one ranked cost/performance/availability
// table (the ROADMAP "topology zoo + adversarial routing scenarios" item).
//
// Campaigns, all deterministic:
//  * Polarization storm — an adversary greedily picks UDP source ports to
//    maximize ECMP collisions on a rail-0 intra-pod permutation plus a
//    rail-1 cross-pod permutation; the EcmpController must defuse the
//    storm to within its documented rebalance_bound() while not hurting
//    Jain's fairness or post-mitigation max link utilization.
//  * Mixed-collective incast — a rail-0 many-to-one incast runs against a
//    rail-1 permutation; the interference ratio (background makespan
//    alone / under incast) measures rail isolation.
//  * Failure blast radius — a FaultSchedule of ToR death, trunk-optics
//    degrade, and Agg death is applied per style with flows in flight;
//    stranded fractions and fault slowdowns roll up into availability.
//
// The cost model charges capacity-proportional optics (long-haul links at
// a multiplier), plus a flat unit cost per switch; cost per good-GPU-hour
// divides by availability-weighted GPU count. examples/topology_shootout
// prints the table and exits nonzero when any self-gate fails;
// tests/topo_shootout_golden_test.cpp byte-compares the table.
#pragma once

#include <string>
#include <vector>

#include "core/units.h"
#include "monitor/faults.h"
#include "topo/fabric.h"

namespace astral::zoo {

struct ShootoutConfig {
  // Fabric scale shared by every zoo member (64 hosts / 256 GPUs).
  int rails = 4;
  int hosts_per_block = 8;
  int blocks_per_pod = 4;
  int pods = 2;
  bool dual_tor = true;
  /// The Clos row runs oversubscribed (the paper's Fig. 2 comparison);
  /// every other style runs non-blocking.
  double clos_oversub = 4.0;

  // Campaign knobs.
  core::Bytes flow_bytes = 16ull << 20;  ///< Per-flow transfer size.
  int storm_port_candidates = 8;  ///< Adversary's ports tried per flow.
  int rebalance_rounds = 8;       ///< Controller convergence budget.

  // Cost model, relative units.
  double cost_per_gbps = 0.5;       ///< Optics, per duplex Gbps.
  double cost_per_switch = 600.0;   ///< Flat per switch chassis.
  double longhaul_multiplier = 10.0;  ///< Cross-datacenter optics.
};

/// One ranked row of the comparison table.
struct StyleResult {
  topo::FabricStyle style = topo::FabricStyle::AstralSameRail;
  double oversub = 1.0;
  int switches = 0;

  // Polarization storm.
  int storm_load_before = 0;   ///< Max ECMP link load, adversarial ports.
  int storm_load_after = 0;    ///< After controller convergence.
  int storm_bound = 0;         ///< EcmpController::rebalance_bound.
  double fairness_before = 0.0;  ///< Jain's index over link loads.
  double fairness_after = 0.0;
  double util_before = 0.0;  ///< Max link peak demand/capacity, unmitigated.
  double util_after = 0.0;   ///< Same, post-mitigation.
  double storm_goodput_gbps = 0.0;  ///< Mitigated storm goodput.

  // Mixed-collective incast.
  double incast_ratio = 0.0;  ///< Background makespan alone / under incast.

  // Failure blast radius.
  double blast_fraction = 0.0;  ///< Mean stranded-flow fraction per fault.
  double availability = 0.0;    ///< Mean (1 - stranded) * min(1, T0/Tf).

  // Cost.
  double fabric_cost = 0.0;            ///< Optics + switches, rel. units.
  double cost_per_good_gpu_hour = 0.0;  ///< Cost / (GPUs * availability).

  double score = 0.0;  ///< Composite of perf / availability / cost.
  int rank = 0;        ///< 1 = best composite score.
};

struct ShootoutReport {
  std::vector<StyleResult> rows;  ///< Ranked best-first.
  std::string table;              ///< Rendered ranked table (golden-locked).
  std::vector<std::string> gate_failures;  ///< Empty when all gates hold.
  bool ok() const { return gate_failures.empty(); }
};

/// The FabricParams a zoo member runs with in this shootout.
topo::FabricParams style_params(const ShootoutConfig& cfg, topo::FabricStyle style);

/// The per-style fault scenarios the blast-radius sweep injects: ToR
/// death (switch scope), trunk-optics degrade (fail-slow), Agg death.
monitor::FaultSchedule blast_schedule(const topo::Fabric& fabric);

/// Runs every campaign over every style and assembles the ranked report.
ShootoutReport run_shootout(const ShootoutConfig& cfg = {});

}  // namespace astral::zoo
