// Regression test for epoch-counter wraparound. The solver's build
// scratch (union-find, shard-root and seen-link stamps) is keyed by one
// monotonically increasing epoch, bumped once per shard build and never
// cleared in steady state. When it wraps to zero, a stamp written 2^64
// builds ago could alias the new epoch and corrupt a solve, so the
// counter carries an explicit reset path. debug_set_build_epoch()
// fast-forwards it so a few waves push it across the wrap, and the
// simulator must behave bitwise-identically to a twin that never
// wrapped.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/units.h"
#include "net/fluid_sim.h"

namespace astral::net {
namespace {

using core::Seconds;

topo::FabricParams fabric_params() {
  topo::FabricParams p;
  p.style = topo::FabricStyle::AstralSameRail;
  p.rails = 4;
  p.hosts_per_block = 4;
  p.blocks_per_pod = 2;
  p.pods = 1;
  return p;
}

// A schedule that builds shards many times: disjoint waves (island
// solves), overlapping waves (full solves), completions, and a mid-run
// degradation (a caps rebuild, which builds nothing).
std::vector<std::vector<double>> run_schedule(FluidSim& sim,
                                              const topo::Fabric& fabric) {
  auto hosts = fabric.topo().hosts();
  for (int w = 0; w < 8; ++w) {
    std::vector<FlowSpec> specs;
    for (int i = 0; i < 12; ++i) {
      FlowSpec s;
      // Even waves land on rails 0/1, odd waves on rails 2/3: arrivals
      // alternate between overlapping the previous wave and forming a
      // disjoint island.
      const int rail = (w % 2) * 2 + i % 2;
      s.src_host = hosts[static_cast<std::size_t>(i) % hosts.size()];
      s.dst_host = hosts[(static_cast<std::size_t>(i) + 5) % hosts.size()];
      s.src_rail = rail;
      s.dst_rail = rail;
      s.size = (1 + i % 4) * (1 << 20);
      s.start = core::usec(15.0 * w);
      s.tag = static_cast<std::uint64_t>(w * 100 + i);
      specs.push_back(s);
    }
    sim.inject_batch(specs);
  }

  std::vector<std::vector<double>> rates;
  int step = 0;
  for (Seconds t : {core::usec(20), core::usec(50), core::usec(95),
                    core::usec(140), core::msec(1)}) {
    sim.run(t);
    if (++step == 2) sim.degrade_link(static_cast<topo::LinkId>(5), 0.5);
    std::vector<double> r;
    for (FlowId id : sim.active_flows()) r.push_back(sim.current_rate(id));
    rates.push_back(std::move(r));
  }
  sim.run(1.0);
  return rates;
}

TEST(EpochWrap, SolveAcrossWrapMatchesUnwrappedTwin) {
  topo::Fabric fabric_a(fabric_params());
  topo::Fabric fabric_b(fabric_params());
  FluidSim normal(fabric_a);
  FluidSim wrapping(fabric_b);
  // Three builds from the top: the fourth build (by the second run()
  // checkpoint at the latest, one per admitted wave) wraps the epoch, so
  // the first waves straddle the wrap and every later build starts from
  // the reset stamps.
  wrapping.debug_set_build_epoch(std::numeric_limits<std::uint64_t>::max() - 3);

  const auto want = run_schedule(normal, fabric_a);
  const auto got = run_schedule(wrapping, fabric_b);

  ASSERT_EQ(want.size(), got.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    ASSERT_EQ(want[s].size(), got[s].size()) << "checkpoint " << s;
    for (std::size_t i = 0; i < want[s].size(); ++i) {
      ASSERT_EQ(std::memcmp(&want[s][i], &got[s][i], sizeof(double)), 0)
          << "checkpoint " << s << " flow " << i << ": " << want[s][i]
          << " vs " << got[s][i];
    }
  }
}

// Wrapping must not poison later solves either: park the epoch just
// below the wrap, run a full workload to completion, then re-solve and
// check idempotence (stale stamps from before the wrap would produce a
// different fixed point).
TEST(EpochWrap, PostWrapResolveIsIdempotent) {
  topo::Fabric fabric(fabric_params());
  FluidSim sim(fabric);
  sim.debug_set_build_epoch(std::numeric_limits<std::uint64_t>::max() - 1);
  auto hosts = fabric.topo().hosts();
  for (int i = 0; i < 32; ++i) {
    FlowSpec s;
    s.src_host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    s.dst_host = hosts[(static_cast<std::size_t>(i) + 3) % hosts.size()];
    s.src_rail = i % 4;
    s.dst_rail = i % 4;
    s.size = 16 * (1 << 20);
    s.tag = static_cast<std::uint64_t>(i);
    sim.inject(s);
  }
  sim.run(core::usec(40));
  auto active = sim.active_flows();
  ASSERT_FALSE(active.empty());
  std::vector<double> before;
  for (FlowId id : active) before.push_back(sim.current_rate(id));
  sim.resolve_rates();
  sim.resolve_rates();
  for (std::size_t i = 0; i < active.size(); ++i) {
    EXPECT_DOUBLE_EQ(sim.current_rate(active[i]), before[i]);
  }
}

}  // namespace
}  // namespace astral::net
