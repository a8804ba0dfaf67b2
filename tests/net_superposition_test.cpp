// Pins the drain's superposition property (DESIGN.md §6): a flow's finish
// and a link's counters depend only on the traffic that shares its shard
// and its switches, never on when unrelated events split time.
//
//  * Superposition. On random zoo fabrics of every style, a workload A
//    runs alone and again next to a workload B whose paths share no link
//    and no switch with A's, B starting at random times within A's span
//    and injected interleaved with A. Every A flow's finish and every
//    link A crosses must read the same bits, at 1 and at 4 solver lanes.
//  * Run slicing. One seeded workload is driven to idle by one run() and
//    again by run(t) at 100 seeded times, which is what a fleet tenant's
//    2 ms QP sampling does to the shared simulator. Every flow's finish
//    and every link's LinkStats must read the same bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "net/fluid_sim.h"
#include "topo/fabric.h"

namespace astral::net {
namespace {

using core::Seconds;

FlowSpec spec_of(const topo::Fabric& f, int src_gpu, int dst_gpu, core::Bytes size,
                 Seconds start) {
  const auto a = f.gpu(src_gpu);
  const auto b = f.gpu(dst_gpu);
  FlowSpec s;
  s.src_host = a.host;
  s.dst_host = b.host;
  s.src_rail = a.rail;
  s.dst_rail = b.rail;
  s.size = size;
  s.start = start;
  return s;
}

// Random zoo fabrics: every style, dual-ToR on and off, with a seeded
// core oversubscription.
std::vector<topo::FabricParams> zoo(core::Rng& rng) {
  std::vector<topo::FabricParams> out;
  for (topo::FabricStyle style : topo::kAllFabricStyles) {
    for (bool dual : {true, false}) {
      topo::FabricParams p;
      p.style = style;
      p.rails = 4;
      p.hosts_per_block = 4;
      p.blocks_per_pod = 2;
      p.pods = 2;
      p.dual_tor = dual;
      p.tier3_oversub = rng.uniform_int(2) == 0 ? 1.0 : 2.0;
      out.push_back(p);
    }
  }
  return out;
}

std::string name_of(const topo::FabricParams& p) {
  return std::string(topo::to_string(p.style)) + (p.dual_tor ? "/dual" : "/single");
}

// A seeded workload of `n` routable flows between GPUs below
// `gpu_limit` on different hosts: incasts into a few destinations (they
// congest host downlinks, so ECN and PFC fire) and random pairs, of mixed
// sizes, starting within `span`, half of them in same-start waves at
// multiples of span/8 (admitted together, in injection order).
std::vector<FlowSpec> draw_workload(FluidSim& probe, core::Rng& rng, int n, int gpu_limit,
                                    Seconds span) {
  const topo::Fabric& f = probe.fabric();
  const auto g = static_cast<std::uint64_t>(gpu_limit);
  std::vector<int> sinks;
  for (int i = 0; i < 3; ++i) sinks.push_back(static_cast<int>(rng.uniform_int(g)));
  std::vector<FlowSpec> specs;
  while (static_cast<int>(specs.size()) < n) {
    const int src = static_cast<int>(rng.uniform_int(g));
    const int dst = rng.uniform_int(2) == 0 ? sinks[rng.uniform_int(sinks.size())]
                                            : static_cast<int>(rng.uniform_int(g));
    const core::Bytes size = (1 + rng.uniform_int(64)) * 16 * 1024;
    const Seconds start = rng.uniform_int(2) == 0
                              ? span / 8 * static_cast<double>(rng.uniform_int(8))
                              : rng.uniform(0.0, span);
    const FlowSpec s = spec_of(f, src, dst, size, start);
    if (s.src_host != s.dst_host && probe.predict_path(s)) specs.push_back(s);
  }
  return specs;
}

// Every node a path visits.
void add_nodes(const topo::Topology& t, const std::vector<topo::LinkId>& path,
               std::set<topo::NodeId>& nodes) {
  for (topo::LinkId l : path) {
    nodes.insert(t.link(l).src);
    nodes.insert(t.link(l).dst);
  }
}

void put_stats(std::vector<std::uint64_t>& bits, const LinkStats& ls) {
  bits.push_back(std::bit_cast<std::uint64_t>(ls.bytes_forwarded));
  bits.push_back(std::bit_cast<std::uint64_t>(ls.busy_time));
  bits.push_back(std::bit_cast<std::uint64_t>(ls.util_time));
  bits.push_back(ls.ecn_marks);
  bits.push_back(ls.pfc_pauses);
  bits.push_back(std::bit_cast<std::uint64_t>(ls.peak_overload));
}

TEST(Superposition, DisjointTrafficLeavesFinishesAndLinkStatsBitIdentical) {
  core::Rng rng(2024);
  std::size_t b_flows = 0;
  std::uint64_t ecn = 0;
  std::uint64_t pfc = 0;
  for (const topo::FabricParams& p : zoo(rng)) {
    SCOPED_TRACE(name_of(p));
    topo::Fabric fabric(p);
    const topo::Topology& topo = fabric.topo();
    // A lives on the first half of the GPUs; B is drawn from all of them
    // and keeps only flows whose paths avoid every node A's paths visit.
    FluidSim probe(fabric);
    const std::vector<FlowSpec> a = draw_workload(probe, rng, 24, fabric.gpu_count() / 2, 200e-6);
    std::set<topo::NodeId> a_nodes;
    std::set<topo::LinkId> a_links;
    for (const FlowSpec& s : a) {
      const auto path = probe.predict_path(s);
      add_nodes(topo, *path, a_nodes);
      a_links.insert(path->begin(), path->end());
    }

    // Injects A with B interleaved at random positions, runs to idle and
    // returns the bits of every A finish and every A link's LinkStats.
    auto run = [&](const std::vector<FlowSpec>& b, int lanes, std::uint64_t mix) {
      FluidSimConfig cfg;
      cfg.solver_threads = lanes;
      FluidSim sim(fabric, cfg);
      core::Rng order(mix);
      std::vector<FlowId> a_ids;
      std::size_t next_b = 0;
      for (const FlowSpec& s : a) {
        while (next_b < b.size() && order.uniform_int(2) == 0) sim.inject(b[next_b++]);
        a_ids.push_back(sim.inject(s));
      }
      while (next_b < b.size()) sim.inject(b[next_b++]);
      sim.run();
      EXPECT_TRUE(sim.idle());
      std::vector<std::uint64_t> bits;
      for (FlowId id : a_ids) bits.push_back(std::bit_cast<std::uint64_t>(sim.flow(id).finish));
      for (topo::LinkId l : a_links) put_stats(bits, sim.link_stats(l));
      return bits;
    };

    const std::vector<std::uint64_t> alone = run({}, 1, 0);
    Seconds span = 0.0;
    {
      FluidSim sim(fabric);
      for (const FlowSpec& s : a) sim.inject(s);
      sim.run();
      span = sim.now();
      for (topo::LinkId l : a_links) {
        ecn += sim.link_stats(l).ecn_marks;
        pfc += sim.link_stats(l).pfc_pauses;
      }
    }
    std::vector<FlowSpec> b;
    for (int tries = 0; tries < 600 && b.size() < 32; ++tries) {
      const auto g = static_cast<std::uint64_t>(fabric.gpu_count());
      const FlowSpec s = spec_of(fabric, static_cast<int>(rng.uniform_int(g)),
                                 static_cast<int>(rng.uniform_int(g)),
                                 (1 + rng.uniform_int(64)) * 16 * 1024, rng.uniform(0.0, span));
      const auto path = probe.predict_path(s);
      if (s.src_host == s.dst_host || !path) continue;
      std::set<topo::NodeId> nodes;
      add_nodes(topo, *path, nodes);
      if (std::none_of(nodes.begin(), nodes.end(),
                       [&](topo::NodeId n) { return a_nodes.count(n) > 0; })) {
        b.push_back(s);
      }
    }
    b_flows += b.size();
    for (int lanes : {1, 4}) {
      EXPECT_TRUE(run({}, lanes, 0) == alone) << "A alone at " << lanes << " lanes";
      EXPECT_TRUE(run(b, lanes, 7 + static_cast<std::uint64_t>(lanes)) == alone)
          << "A next to " << b.size() << " disjoint B flows at " << lanes << " lanes";
    }
  }
  // The property is only tested where B exists and A's links congest.
  EXPECT_GT(b_flows, 100u);
  EXPECT_GT(ecn, 0u);
  EXPECT_GT(pfc, 0u);
}

TEST(Superposition, RunSlicingLeavesFinishesAndLinkStatsBitIdentical) {
  core::Rng rng(77);
  for (const topo::FabricParams& p : zoo(rng)) {
    SCOPED_TRACE(name_of(p));
    topo::Fabric fabric(p);
    FluidSim probe(fabric);
    const std::vector<FlowSpec> w = draw_workload(probe, rng, 48, fabric.gpu_count(), 300e-6);
    // Runs the workload to idle, first through run(t) at each slice time.
    auto run = [&](const std::vector<Seconds>& slices) {
      FluidSim sim(fabric);
      for (const FlowSpec& s : w) sim.inject(s);
      for (Seconds t : slices) sim.run(t);
      sim.run();
      EXPECT_TRUE(sim.idle());
      std::vector<std::uint64_t> bits;
      for (FlowId id = 0; id < sim.flow_count(); ++id) {
        bits.push_back(std::bit_cast<std::uint64_t>(sim.flow(id).finish));
      }
      for (std::size_t l = 0; l < fabric.topo().link_count(); ++l) {
        put_stats(bits, sim.link_stats(static_cast<topo::LinkId>(l)));
      }
      return std::make_pair(bits, sim.now());
    };
    const auto [whole, makespan] = run({});
    std::vector<Seconds> slices;
    for (int i = 0; i < 100; ++i) slices.push_back(rng.uniform(0.0, makespan));
    std::sort(slices.begin(), slices.end());
    EXPECT_TRUE(run(slices).first == whole);
  }
}

}  // namespace
}  // namespace astral::net
