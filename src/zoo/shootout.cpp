#include "zoo/shootout.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/math.h"
#include "core/table.h"
#include "net/controller.h"
#include "net/fluid_sim.h"

namespace astral::zoo {

namespace {

using net::EcmpController;
using net::FlowSpec;
using net::FluidSim;
using topo::FabricStyle;

// Rail-0 intra-pod cross-block permutation (routable on every style,
// rail-only included) plus a rail-1 cross-pod permutation on styles with
// inter-pod connectivity.
std::vector<FlowSpec> storm_specs(const topo::Fabric& f, core::Bytes bytes) {
  const auto& p = f.params();
  std::vector<FlowSpec> specs;
  std::uint64_t tag = 0;
  for (int pod = 0; pod < p.total_pods(); ++pod) {
    for (int b = 0; b < p.blocks_per_pod; ++b) {
      for (int h = 0; h < p.hosts_per_block; ++h) {
        FlowSpec s;
        s.src_host = f.host_at(pod, b, h);
        s.dst_host = f.host_at(pod, (b + 1) % p.blocks_per_pod, h);
        s.src_rail = 0;
        s.dst_rail = 0;
        s.size = bytes;
        s.tag = tag++;
        specs.push_back(s);
      }
    }
  }
  if (p.style != FabricStyle::RailOnly && p.total_pods() > 1) {
    for (int pod = 0; pod < p.total_pods(); ++pod) {
      for (int b = 0; b < p.blocks_per_pod; ++b) {
        for (int h = 0; h < p.hosts_per_block; ++h) {
          FlowSpec s;
          s.src_host = f.host_at(pod, b, h);
          s.dst_host = f.host_at((pod + 1) % p.total_pods(), b, h);
          s.src_rail = 1;
          s.dst_rail = 1;
          s.size = bytes;
          s.tag = tag++;
          specs.push_back(s);
        }
      }
    }
  }
  return specs;
}

// Rail-1 intra-pod permutation: the background collective of the incast
// campaign (and the probe for rail isolation).
std::vector<FlowSpec> background_specs(const topo::Fabric& f, core::Bytes bytes) {
  const auto& p = f.params();
  std::vector<FlowSpec> specs;
  std::uint64_t tag = 1u << 20;
  int rail = p.rails > 1 ? 1 : 0;
  for (int pod = 0; pod < p.total_pods(); ++pod) {
    for (int b = 0; b < p.blocks_per_pod; ++b) {
      for (int h = 0; h < p.hosts_per_block; ++h) {
        FlowSpec s;
        s.src_host = f.host_at(pod, b, h);
        s.dst_host = f.host_at(pod, (b + 1) % p.blocks_per_pod, h);
        s.src_rail = rail;
        s.dst_rail = rail;
        s.size = bytes;
        s.tag = tag++;
        specs.push_back(s);
      }
    }
  }
  return specs;
}

// Rail-0 many-to-one: every host of pod 0's other blocks fires at the
// same-index host of block 0.
std::vector<FlowSpec> incast_specs(const topo::Fabric& f, core::Bytes bytes) {
  const auto& p = f.params();
  std::vector<FlowSpec> specs;
  std::uint64_t tag = 2u << 20;
  for (int b = 1; b < p.blocks_per_pod; ++b) {
    for (int h = 0; h < p.hosts_per_block; ++h) {
      FlowSpec s;
      s.src_host = f.host_at(0, b, h);
      s.dst_host = f.host_at(0, 0, h);
      s.src_rail = 0;
      s.dst_rail = 0;
      s.size = bytes;
      s.tag = tag++;
      specs.push_back(s);
    }
  }
  return specs;
}

// The adversary: greedily picks each flow's source port to maximize the
// hottest link it can hit, using the same hash simulator the controller
// runs. This is the polarization storm the controller must defuse.
void polarize_ports(const FluidSim& sim, std::vector<FlowSpec>& specs,
                    int candidates) {
  std::unordered_map<topo::LinkId, int> load;
  for (auto& s : specs) {
    int best_score = -1;
    std::uint16_t best_port = s.src_port;
    std::vector<topo::LinkId> best_path;
    for (int k = 0; k < candidates; ++k) {
      FlowSpec c = s;
      c.src_port = static_cast<std::uint16_t>(
          4096u + (static_cast<std::uint32_t>(s.tag) * 31u + static_cast<std::uint32_t>(k) * 257u) %
                      50000u);
      auto path = sim.predict_path(c);
      if (!path) continue;
      int score = 0;
      for (topo::LinkId l : *path) {
        auto it = load.find(l);
        score = std::max(score, (it == load.end() ? 0 : it->second) + 1);
      }
      if (score > best_score) {
        best_score = score;
        best_port = c.src_port;
        best_path = std::move(*path);
      }
    }
    s.src_port = best_port;
    for (topo::LinkId l : best_path) ++load[l];
  }
}

struct WaveOutcome {
  double makespan = 0.0;
  double max_overload = 0.0;
  double bytes = 0.0;
};

// Runs one same-start wave on a fresh simulator over `fabric`.
WaveOutcome run_wave(topo::Fabric& fabric, const std::vector<FlowSpec>& specs) {
  FluidSim sim(fabric);
  auto ids = sim.inject_batch(specs);
  sim.run();
  WaveOutcome out;
  out.makespan = sim.now();
  for (std::size_t l = 0; l < fabric.topo().link_count(); ++l) {
    out.max_overload = std::max(
        out.max_overload, sim.link_stats(static_cast<topo::LinkId>(l)).peak_overload);
  }
  for (net::FlowId id : ids) {
    if (sim.flow(id).admitted) out.bytes += static_cast<double>(sim.flow(id).spec.size);
  }
  return out;
}

std::vector<double> link_loads(const EcmpController& ctl,
                               const std::vector<FlowSpec>& specs) {
  std::vector<double> loads;
  for (const auto& [l, n] : ctl.estimate_load(specs)) {
    loads.push_back(static_cast<double>(n));
  }
  return loads;
}

void apply_fault(FluidSim& sim, const monitor::FaultSpec& fault) {
  const topo::Topology& topo = sim.fabric().topo();
  if (fault.manifestation == monitor::Manifestation::FailSlow) {
    sim.degrade_link(fault.target_link, fault.degrade_factor);
  } else if (fault.switch_scope) {
    topo::NodeId sw = topo.link(fault.target_link).dst;
    for (topo::LinkId l : topo.out_links(sw)) sim.set_link_up(l, false);
    for (topo::LinkId l : topo.in_links(sw)) sim.set_link_up(l, false);
  } else {
    sim.set_link_up(fault.target_link, false);
  }
}

double fabric_cost(const ShootoutConfig& cfg, const topo::Fabric& f) {
  const auto& p = f.params();
  double optics = 0.0;
  for (const auto& l : f.topo().links()) {
    int dc_src = f.topo().node(l.src).pod / p.pods;
    int dc_dst = f.topo().node(l.dst).pod / p.pods;
    double mult = dc_src != dc_dst ? cfg.longhaul_multiplier : 1.0;
    // Each duplex pair is one cable; halve the directed sum.
    optics += core::to_gbps(l.capacity) * cfg.cost_per_gbps * mult * 0.5;
  }
  return optics + p.switch_count() * cfg.cost_per_switch;
}

}  // namespace

topo::FabricParams style_params(const ShootoutConfig& cfg, FabricStyle style) {
  topo::FabricParams p;
  p.style = style;
  p.rails = cfg.rails;
  p.hosts_per_block = cfg.hosts_per_block;
  p.blocks_per_pod = cfg.blocks_per_pod;
  p.pods = cfg.pods;
  p.dual_tor = cfg.dual_tor;
  if (style == FabricStyle::Clos) p.tier3_oversub = cfg.clos_oversub;
  return p;
}

monitor::FaultSchedule blast_schedule(const topo::Fabric& fabric) {
  const topo::Topology& topo = fabric.topo();
  monitor::FaultSchedule sched;

  // ToR death with flows in flight: the dual-homing (P3) scenario.
  monitor::FaultSpec tor_death;
  tor_death.cause = monitor::RootCause::SwitchBug;
  tor_death.manifestation = monitor::Manifestation::FailStop;
  tor_death.target_link = topo.host_uplink(topo.hosts()[0], 0, 0);
  tor_death.switch_scope = true;
  tor_death.mid_transfer_fraction = 0.5;
  sched.add(tor_death);

  // First trunk (ToR -> Agg) link: optics degrade, then Agg death.
  topo::LinkId trunk = topo::kInvalidLink;
  for (const auto& l : topo.links()) {
    if (topo.node(l.src).kind == topo::NodeKind::Tor &&
        topo.node(l.dst).kind == topo::NodeKind::Agg) {
      trunk = l.id;
      break;
    }
  }
  if (trunk != topo::kInvalidLink) {
    monitor::FaultSpec degrade;
    degrade.cause = monitor::RootCause::OpticalFiber;
    degrade.manifestation = monitor::Manifestation::FailSlow;
    degrade.target_link = trunk;
    degrade.degrade_factor = 0.25;
    sched.add(degrade);

    monitor::FaultSpec agg_death;
    agg_death.cause = monitor::RootCause::SwitchConfig;
    agg_death.manifestation = monitor::Manifestation::FailStop;
    agg_death.target_link = trunk;
    agg_death.switch_scope = true;
    sched.add(agg_death);
  }
  return sched;
}

ShootoutReport run_shootout(const ShootoutConfig& cfg) {
  ShootoutReport report;

  for (FabricStyle style : topo::kAllFabricStyles) {
    StyleResult r;
    r.style = style;
    auto params = style_params(cfg, style);
    r.oversub = params.tier3_oversub;
    r.switches = params.switch_count();

    // --- Polarization storm ---
    topo::Fabric fabric(params);
    auto specs = storm_specs(fabric, cfg.flow_bytes);
    {
      FluidSim probe(fabric);
      EcmpController ctl(probe);
      polarize_ports(probe, specs, cfg.storm_port_candidates);
      r.storm_load_before = ctl.max_link_load(specs);
      r.fairness_before = core::jain_fairness(link_loads(ctl, specs));
      auto unmitigated = run_wave(fabric, specs);
      r.util_before = unmitigated.max_overload;

      for (int round = 0; round < cfg.rebalance_rounds; ++round) {
        if (ctl.rebalance(specs) == 0) break;
      }
      r.storm_load_after = ctl.max_link_load(specs);
      r.storm_bound = ctl.rebalance_bound(specs);
      r.fairness_after = core::jain_fairness(link_loads(ctl, specs));
      auto mitigated = run_wave(fabric, specs);
      r.util_after = mitigated.max_overload;
      r.storm_goodput_gbps =
          mitigated.makespan > 0 ? mitigated.bytes * 8.0 / mitigated.makespan / 1e9 : 0.0;
    }

    // --- Mixed-collective incast ---
    {
      auto background = background_specs(fabric, cfg.flow_bytes);
      auto incast = incast_specs(fabric, cfg.flow_bytes);
      double alone = run_wave(fabric, background).makespan;
      FluidSim sim(fabric);
      auto bg_ids = sim.inject_batch(background);
      sim.inject_batch(incast);
      sim.run_watch(bg_ids);
      double mixed = sim.now();
      r.incast_ratio = mixed > 0 ? alone / mixed : 0.0;
    }

    // --- Failure blast radius (FaultSchedule sweep) ---
    {
      auto traffic = storm_specs(fabric, cfg.flow_bytes);
      double baseline = run_wave(fabric, traffic).makespan;
      auto sched = blast_schedule(fabric);
      double avail_sum = 0.0, blast_sum = 0.0;
      for (const auto& fault : sched.faults) {
        // Fresh fabric per fault: set_link_up mutates routing state.
        topo::Fabric scratch(params);
        FluidSim sim(scratch);
        auto ids = sim.inject_batch(traffic);
        apply_fault(sim, fault);
        auto rep = sim.reroute_flows();
        std::size_t admitted = 0;
        for (net::FlowId id : ids) {
          if (sim.flow(id).admitted) ++admitted;
        }
        double stranded = admitted > 0
                              ? static_cast<double>(rep.stranded.size()) /
                                    static_cast<double>(admitted)
                              : 0.0;
        std::vector<net::FlowId> watch;
        for (net::FlowId id : ids) {
          const auto& st = sim.flow(id);
          if (st.admitted && !st.aborted && !st.path.empty()) watch.push_back(id);
        }
        sim.run_watch(watch);
        double slowdown = sim.now() > 0 ? std::min(1.0, baseline / sim.now()) : 0.0;
        blast_sum += stranded;
        avail_sum += (1.0 - stranded) * slowdown;
      }
      std::size_t n = std::max<std::size_t>(1, sched.size());
      r.blast_fraction = blast_sum / static_cast<double>(n);
      r.availability = avail_sum / static_cast<double>(n);
    }

    // --- Cost ---
    r.fabric_cost = fabric_cost(cfg, fabric);
    r.cost_per_good_gpu_hour =
        r.availability > 0
            ? r.fabric_cost / (params.gpu_count() * r.availability)
            : 0.0;

    report.rows.push_back(r);
  }

  // --- Composite score and ranking ---
  double best_goodput = 0.0, best_avail = 0.0, best_cpggh = 0.0;
  for (const auto& r : report.rows) {
    best_goodput = std::max(best_goodput, r.storm_goodput_gbps);
    best_avail = std::max(best_avail, r.availability);
    if (r.cost_per_good_gpu_hour > 0) {
      best_cpggh = best_cpggh == 0.0
                       ? r.cost_per_good_gpu_hour
                       : std::min(best_cpggh, r.cost_per_good_gpu_hour);
    }
  }
  for (auto& r : report.rows) {
    double perf = best_goodput > 0 ? r.storm_goodput_gbps / best_goodput : 0.0;
    double avail = best_avail > 0 ? r.availability / best_avail : 0.0;
    double cost = r.cost_per_good_gpu_hour > 0 ? best_cpggh / r.cost_per_good_gpu_hour : 0.0;
    r.score = (perf + avail + cost) / 3.0;
  }
  std::stable_sort(report.rows.begin(), report.rows.end(),
                   [](const StyleResult& a, const StyleResult& b) {
                     return a.score > b.score;
                   });
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    report.rows[i].rank = static_cast<int>(i) + 1;
  }

  // --- Render the ranked table ---
  core::Table table({"#", "fabric", "ovsub", "switches", "storm-gbps",
                     "ecmp-load", "fairness", "incast", "blast", "avail",
                     "cost", "$/good-gpu-h", "score"});
  for (const auto& r : report.rows) {
    table.add_row({std::to_string(r.rank), topo::to_string(r.style),
                   core::Table::num(r.oversub, 1), std::to_string(r.switches),
                   core::Table::num(r.storm_goodput_gbps, 1),
                   std::to_string(r.storm_load_before) + "->" +
                       std::to_string(r.storm_load_after) + "/" +
                       std::to_string(r.storm_bound),
                   core::Table::num(r.fairness_before, 2) + "->" +
                       core::Table::num(r.fairness_after, 2),
                   core::Table::num(r.incast_ratio, 2),
                   core::Table::pct(r.blast_fraction, 1),
                   core::Table::pct(r.availability, 1),
                   core::Table::num(r.fabric_cost, 0),
                   core::Table::num(r.cost_per_good_gpu_hour, 2),
                   core::Table::num(r.score, 3)});
  }
  report.table = table.str();

  // --- Self-gates ---
  auto gate = [&](bool ok, const std::string& msg) {
    if (!ok) {
      report.gate_failures.push_back(
          "[" + std::to_string(report.gate_failures.size() + 1) + "] " + msg);
    }
  };
  const StyleResult* astral = nullptr;
  const StyleResult* clos = nullptr;
  const StyleResult* rail_only = nullptr;
  for (const auto& r : report.rows) {
    if (r.style == FabricStyle::AstralSameRail) astral = &r;
    if (r.style == FabricStyle::Clos) clos = &r;
    if (r.style == FabricStyle::RailOnly) rail_only = &r;
    const std::string name = topo::to_string(r.style);
    gate(r.storm_load_after <= r.storm_bound,
         name + ": post-rebalance ECMP load " + std::to_string(r.storm_load_after) +
             " exceeds documented bound " + std::to_string(r.storm_bound));
    gate(r.fairness_after >= r.fairness_before - 0.05,
         name + ": rebalance degraded Jain's fairness " +
             core::Table::num(r.fairness_before, 3) + " -> " +
             core::Table::num(r.fairness_after, 3));
    gate(r.util_after <= r.util_before + 0.05,
         name + ": post-mitigation max link utilization " +
             core::Table::num(r.util_after, 3) + " exceeds unmitigated " +
             core::Table::num(r.util_before, 3));
    gate(r.storm_goodput_gbps > 0.0, name + ": zero storm goodput");
    gate(r.availability > 0.0 && r.availability <= 1.0 + 1e-9,
         name + ": availability out of range");
  }
  gate(report.rows.size() == std::size(topo::kAllFabricStyles),
       "ranking table is missing zoo members");
  if (astral && clos) {
    gate(astral->storm_goodput_gbps > clos->storm_goodput_gbps,
         "astral-same-rail storm goodput must beat oversubscribed clos (" +
             core::Table::num(astral->storm_goodput_gbps, 1) + " vs " +
             core::Table::num(clos->storm_goodput_gbps, 1) + ")");
    gate(astral->incast_ratio >= clos->incast_ratio - 0.02,
         "astral-same-rail lost rail isolation under incast vs clos");
  }
  if (rail_only) {
    bool cheapest = true;
    for (const auto& r : report.rows) {
      if (r.style != FabricStyle::RailOnly &&
          r.cost_per_good_gpu_hour <= rail_only->cost_per_good_gpu_hour) {
        cheapest = false;
      }
    }
    gate(cheapest, "rail-only must win cost per good-GPU-hour");
  }
  return report;
}

}  // namespace astral::zoo
