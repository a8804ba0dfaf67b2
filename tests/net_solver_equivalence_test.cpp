// Property test: the max-min solver inside FluidSim must produce the
// same rates as the retained naive reference solver
// (src/net/maxmin_ref.{h,cpp}, the verbatim pre-incremental algorithm)
// across randomized topologies, degradations and arrival patterns.
//
// Each scenario builds a random fabric, injects a random flow schedule
// (single flows and same-start waves, via both inject and inject_batch),
// optionally degrades or blocks links (both before and mid-run), then
// steps the simulator through several checkpoints. At every checkpoint
// the reference solver is run over the live active set's paths and the
// current effective capacities; every flow's rate must match to 1e-9
// relative. The sweep runs on 1 and on 4 solver lanes with a metrics
// registry attached, and pins how many full and island solves the sweep
// runs: the island rule, the detached-completion fast path and the
// solve-due rule decide those counts, so a change to any of them moves a
// count even when every rate still matches.
#include <gtest/gtest.h>

#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "net/fluid_sim.h"
#include "net/maxmin_ref.h"
#include "obs/metrics.h"

namespace astral::net {
namespace {

using core::Seconds;

constexpr double kRelTol = 1e-9;

struct ScenarioStats {
  int scenarios = 0;
  int checkpoints = 0;
  long long rates_compared = 0;
  int degraded = 0;
  int blocked = 0;
  int batched = 0;
  std::size_t max_shards = 0;
  std::uint64_t island_solves = 0;
  std::uint64_t full_solves = 0;
  std::uint64_t solve_samples = 0;  ///< fluidsim.solve_us records.
};

void expect_rates_match(const FluidSim& sim, ScenarioStats& stats, int scenario) {
  auto active = sim.active_flows();
  if (active.empty()) return;
  ++stats.checkpoints;
  std::vector<std::vector<topo::LinkId>> paths;
  paths.reserve(active.size());
  for (FlowId id : active) paths.push_back(sim.flow(id).path);
  const std::size_t nlinks = sim.fabric().topo().link_count();
  std::vector<double> caps(nlinks);
  for (std::size_t l = 0; l < nlinks; ++l) {
    caps[l] = sim.effective_capacity(static_cast<topo::LinkId>(l));
  }
  static std::vector<double> ref_rates;
  MaxMinRef::solve(paths, caps, ref_rates);
  for (std::size_t i = 0; i < active.size(); ++i) {
    const double got = sim.current_rate(active[i]);
    const double want = ref_rates[i];
    const double tol = kRelTol * std::max({1.0, std::abs(got), std::abs(want)});
    ASSERT_NEAR(got, want, tol)
        << "scenario " << scenario << " flow " << active[i] << " of "
        << active.size() << " active";
    ++stats.rates_compared;
  }
}

// Runs `scenarios` randomized scenarios under `cfg` and checks every
// checkpoint against MaxMinRef. The rng seed is fixed, so every
// configuration sees the identical scenario sequence.
void run_randomized_sweep(const FluidSimConfig& cfg, int scenarios,
                          ScenarioStats& stats) {
  core::Rng rng(20250806);
  obs::Metrics metrics;
  const topo::FabricStyle styles[] = {
      topo::FabricStyle::AstralSameRail, topo::FabricStyle::RailOptimized,
      topo::FabricStyle::Clos, topo::FabricStyle::RailOnly};

  for (int sc = 0; sc < scenarios; ++sc) {
    topo::FabricParams p;
    p.style = styles[rng.uniform_int(4)];
    p.rails = 2 + 2 * static_cast<int>(rng.uniform_int(2));  // 2 or 4
    p.hosts_per_block = 2 + static_cast<int>(rng.uniform_int(3));
    p.blocks_per_pod = 1 + static_cast<int>(rng.uniform_int(2));
    p.pods = 1 + static_cast<int>(rng.uniform_int(2));
    p.dual_tor = rng.chance(0.5);
    p.tier3_oversub = rng.chance(0.3) ? 2.0 : 1.0;
    topo::Fabric fabric(p);
    FluidSim sim(fabric, cfg);
    sim.set_metrics(&metrics);
    auto hosts = fabric.topo().hosts();
    // Rail-only fabrics have no inter-pod connectivity: stay in pod 0.
    std::size_t usable = p.style == topo::FabricStyle::RailOnly
                             ? hosts.size() / static_cast<std::size_t>(p.pods)
                             : hosts.size();

    // Pre-run degradations (sometimes blocking a link entirely).
    const std::size_t nlinks = fabric.topo().link_count();
    if (rng.chance(0.4)) {
      int n = 1 + static_cast<int>(rng.uniform_int(3));
      for (int d = 0; d < n; ++d) {
        auto l = static_cast<topo::LinkId>(rng.uniform_int(nlinks));
        double factor = rng.chance(0.3) ? 0.0 : rng.uniform(0.1, 0.9);
        sim.degrade_link(l, factor);
        if (factor == 0.0) ++stats.blocked; else ++stats.degraded;
      }
    }

    // Flow schedule: 1-4 waves; each wave has one start time, and some
    // waves go through inject_batch (the collective-runner path).
    const int waves = 1 + static_cast<int>(rng.uniform_int(4));
    for (int w = 0; w < waves; ++w) {
      Seconds start = w == 0 ? 0.0 : core::usec(30.0 * w);
      const int nflows = 1 + static_cast<int>(rng.uniform_int(24));
      std::vector<FlowSpec> specs;
      for (int i = 0; i < nflows; ++i) {
        FlowSpec s;
        std::size_t a = rng.uniform_int(usable);
        std::size_t b = rng.uniform_int(usable);
        s.src_host = hosts[a];
        s.dst_host = hosts[b];
        int rail = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(p.rails)));
        s.src_rail = rail;
        // Occasionally cross-rail (unroutable on RailOnly: exercises the
        // rejected-flow path).
        s.dst_rail = rng.chance(0.2)
                         ? static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(p.rails)))
                         : rail;
        s.size = (1 + rng.uniform_int(32)) * (1 << 20);
        s.start = start;
        s.tag = static_cast<std::uint64_t>(w * 1000 + i);
        s.src_port = static_cast<std::uint16_t>(rng.uniform_int(1 << 16));
        specs.push_back(s);
      }
      if (rng.chance(0.5)) {
        sim.inject_batch(specs);
        ++stats.batched;
      } else {
        for (const auto& s : specs) sim.inject(s);
      }
    }

    // Step through checkpoints; maybe degrade mid-run.
    const Seconds checkpoints[] = {core::usec(20), core::usec(80),
                                   core::usec(400), core::msec(2)};
    for (Seconds t : checkpoints) {
      sim.run(t);
      if (rng.chance(0.15)) {
        auto l = static_cast<topo::LinkId>(rng.uniform_int(nlinks));
        sim.degrade_link(l, rng.chance(0.3) ? 0.0 : rng.uniform(0.2, 1.0));
      }
      expect_rates_match(sim, stats, sc);
      if (::testing::Test::HasFatalFailure()) return;
      stats.max_shards = std::max(stats.max_shards, sim.solver_shard_count());
    }
    // Bounded drain: blocked flows may legitimately never finish.
    sim.run(1.0);
    expect_rates_match(sim, stats, sc);
    if (::testing::Test::HasFatalFailure()) return;
    ++stats.scenarios;
  }
  stats.island_solves = metrics.counter("fluidsim.solves.island");
  stats.full_solves = metrics.counter("fluidsim.solves.full");
  const obs::Histogram* h = metrics.find_histogram("fluidsim.solve_us");
  stats.solve_samples = h != nullptr ? h->count() : 0;
}

TEST(SolverEquivalence, RandomizedScenariosMatchNaiveReference) {
  ScenarioStats stats;
  run_randomized_sweep(FluidSimConfig{}, 1100, stats);
  EXPECT_GE(stats.scenarios, 1000);
  // The sweep must actually exercise the interesting paths.
  EXPECT_GT(stats.checkpoints, 2000);
  EXPECT_GT(stats.rates_compared, 10000);
  EXPECT_GT(stats.degraded, 100);
  EXPECT_GT(stats.blocked, 50);
  EXPECT_GT(stats.batched, 300);
  // Exact component sharding must split the constraint graph sometimes.
  EXPECT_GT(stats.max_shards, 1u);
  // The solve schedule: arrival waves on otherwise unused links take the
  // island path, everything else waits for one full solve per event, and
  // every timed solve records one sample.
  EXPECT_EQ(stats.island_solves, 1172u);
  EXPECT_EQ(stats.full_solves, 19398u);
  EXPECT_EQ(stats.solve_samples, 20570u);
}

// The same sweep on 4 solver lanes: shards (full and island) solve
// concurrently and must still match the reference.
TEST(SolverEquivalence, ExactShardingOnFourLanesMatchesReference) {
  FluidSimConfig cfg;
  cfg.solver_threads = 4;
  ScenarioStats stats;
  run_randomized_sweep(cfg, 300, stats);
  EXPECT_GE(stats.scenarios, 300);
  EXPECT_GT(stats.checkpoints, 500);
  EXPECT_GT(stats.rates_compared, 3000);
  EXPECT_GT(stats.max_shards, 1u);
  EXPECT_EQ(stats.island_solves, 317u);
  EXPECT_EQ(stats.full_solves, 4993u);
  EXPECT_EQ(stats.solve_samples, 5310u);
}

// resolve_rates() must be idempotent: re-solving an unchanged active set
// reproduces identical (not merely close) rates.
TEST(SolverEquivalence, ResolveIsIdempotent) {
  topo::FabricParams p;
  p.rails = 4;
  p.hosts_per_block = 4;
  p.blocks_per_pod = 2;
  p.pods = 2;
  topo::Fabric fabric(p);
  FluidSim sim(fabric);
  auto hosts = fabric.topo().hosts();
  for (int i = 0; i < 64; ++i) {
    FlowSpec s;
    s.src_host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    s.dst_host = hosts[(static_cast<std::size_t>(i) + 7) % hosts.size()];
    s.src_rail = i % 4;
    s.dst_rail = i % 4;
    s.size = 64 * 1024 * 1024;
    s.tag = static_cast<std::uint64_t>(i);
    sim.inject(s);
  }
  sim.run(core::usec(50));
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

// A wave arriving on links that nobody else uses takes the island fast
// path; a wave overlapping existing flows takes the full solve. Both must
// match the reference.
TEST(SolverEquivalence, DisjointAndOverlappingWavesMatchReference) {
  topo::FabricParams p;
  p.rails = 4;
  p.hosts_per_block = 4;
  p.blocks_per_pod = 2;
  p.pods = 1;
  topo::Fabric fabric(p);
  FluidSim sim(fabric);
  auto hosts = fabric.topo().hosts();
  ScenarioStats stats;

  // Long-lived background flow on rail 0.
  FlowSpec bg;
  bg.src_host = hosts[0];
  bg.dst_host = hosts[4];
  bg.src_rail = 0;
  bg.dst_rail = 0;
  bg.size = static_cast<core::Bytes>(1) << 40;
  bg.tag = 1;
  sim.inject(bg);

  // Disjoint wave on rail 2 (island fast path), then an overlapping wave
  // on rail 0 sharing the background's NIC port (full solve).
  std::vector<FlowSpec> disjoint;
  for (int i = 0; i < 6; ++i) {
    FlowSpec s;
    s.src_host = hosts[static_cast<std::size_t>(1 + i % 3)];
    s.dst_host = hosts[static_cast<std::size_t>(5 + i % 3)];
    s.src_rail = 2;
    s.dst_rail = 2;
    s.size = 8 * 1024 * 1024;
    s.start = core::usec(10);
    s.tag = static_cast<std::uint64_t>(100 + i);
    disjoint.push_back(s);
  }
  sim.inject_batch(disjoint);
  std::vector<FlowSpec> overlapping;
  for (int i = 0; i < 6; ++i) {
    FlowSpec s;
    s.src_host = hosts[0];
    s.dst_host = hosts[4];
    s.src_rail = 0;
    s.dst_rail = 0;
    s.size = 8 * 1024 * 1024;
    s.start = core::usec(20);
    s.tag = static_cast<std::uint64_t>(200 + i);
    overlapping.push_back(s);
  }
  sim.inject_batch(overlapping);

  for (Seconds t : {core::usec(15), core::usec(25), core::usec(200), core::msec(5)}) {
    sim.run(t);
    expect_rates_match(sim, stats, -1);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(stats.checkpoints, 4);
}

}  // namespace
}  // namespace astral::net
