#include "net/fluid_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace astral::net {
namespace {

using core::gbps;
using core::Seconds;
using namespace core;  // literal operators (_MiB)

topo::Fabric small_fabric(topo::FabricStyle style = topo::FabricStyle::AstralSameRail) {
  topo::FabricParams p;
  p.style = style;
  p.rails = 4;
  p.hosts_per_block = 4;
  p.blocks_per_pod = 2;
  p.pods = 2;
  return topo::Fabric(p);
}

FlowSpec make_spec(const topo::Fabric& f, int src_gpu, int dst_gpu, core::Bytes size,
                   std::uint64_t tag = 0) {
  auto a = f.gpu(src_gpu);
  auto b = f.gpu(dst_gpu);
  FlowSpec s;
  s.src_host = a.host;
  s.dst_host = b.host;
  s.src_rail = a.rail;
  s.dst_rail = b.rail;
  s.size = size;
  s.tag = tag;
  return s;
}

TEST(FluidSim, SingleFlowRunsAtLineRate) {
  auto f = small_fabric();
  FluidSim sim(f);
  // Same-rail, cross-block: 200G NIC port is the bottleneck.
  auto spec = make_spec(f, 0, f.params().rails * f.params().hosts_per_block * 1, 25_MiB);
  FlowId id = sim.inject(spec);
  sim.run();
  const auto& st = sim.flow(id);
  ASSERT_TRUE(st.admitted);
  Seconds expected = core::transfer_time(25_MiB, gbps(200));
  EXPECT_NEAR(st.finish, expected, expected * 1e-6);
}

TEST(FluidSim, SameRailPathIsFourHops) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;  // next block, rail 0
  auto path = sim.predict_path(make_spec(f, 0, dst, 1_MiB));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 4u);  // host->tor->agg->tor->host
}

TEST(FluidSim, CrossPodPathIsSixHops) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.gpu_count() / 2;  // pod 1, rail 0
  auto path = sim.predict_path(make_spec(f, 0, dst, 1_MiB));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 6u);
}

TEST(FluidSim, PathStartsOnSourceRailAndEndsOnDestinationRail) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block + 2;  // rail 2
  auto spec = make_spec(f, 1, dst, 1_MiB);  // rail 1 -> rail 2
  auto path = sim.predict_path(spec);
  ASSERT_TRUE(path.has_value());
  const auto& topo = f.topo();
  const auto& first_tor = topo.node(topo.link(path->front()).dst);
  const auto& last_tor = topo.node(topo.link(path->back()).src);
  EXPECT_EQ(first_tor.rail, 1);
  EXPECT_EQ(last_tor.rail, 2);
}

TEST(FluidSim, TwoFlowsShareBottleneckFairly) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  // Two flows from the same NIC to the same destination NIC: they share
  // the 200G source port.
  auto s1 = make_spec(f, 0, dst, 10_MiB, 1);
  auto s2 = make_spec(f, 0, dst, 10_MiB, 2);
  FlowId f1 = sim.inject(s1);
  FlowId f2 = sim.inject(s2);
  sim.run();
  Seconds expected = core::transfer_time(20_MiB, gbps(200));
  EXPECT_NEAR(sim.flow(f1).finish, expected, expected * 0.02);
  EXPECT_NEAR(sim.flow(f2).finish, expected, expected * 0.02);
}

TEST(FluidSim, MaxMinShortFlowFinishesThenLongSpeedsUp) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  FlowId short_id = sim.inject(make_spec(f, 0, dst, 5_MiB, 1));
  FlowId long_id = sim.inject(make_spec(f, 0, dst, 15_MiB, 2));
  sim.run();
  // Shared 200G until the short one finishes at 2*5MiB, then the long
  // one gets the full port: total = (10 + 10) MiB at 200G equivalent.
  Seconds t_short = core::transfer_time(10_MiB, gbps(200));
  Seconds t_long = core::transfer_time(20_MiB, gbps(200));
  EXPECT_NEAR(sim.flow(short_id).finish, t_short, t_short * 0.02);
  EXPECT_NEAR(sim.flow(long_id).finish, t_long, t_long * 0.02);
}

TEST(FluidSim, StaggeredArrivalHonored) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  auto s1 = make_spec(f, 0, dst, 10_MiB, 1);
  auto s2 = make_spec(f, 0, dst, 10_MiB, 2);
  s2.start = core::msec(10);
  FlowId f1 = sim.inject(s1);
  sim.inject(s2);
  sim.run();
  // Flow 1 runs alone for 10ms (~25MB at 200G = 250MB/s... it transfers
  // 0.25 GB/s * 10 ms = 250 MB; actually 200G = 25 GB/s so 250 MB >
  // 10 MiB). Flow 1 finishes before flow 2 even starts.
  EXPECT_LT(sim.flow(f1).finish, core::msec(10));
}

TEST(FluidSim, UnroutableFlowRejected) {
  auto f = small_fabric(topo::FabricStyle::RailOnly);
  FluidSim sim(f);
  // Cross-rail on rail-only fabric: no route.
  auto spec = make_spec(f, 0, f.params().rails + 1, 1_MiB);
  FlowId id = sim.inject(spec);
  EXPECT_FALSE(sim.flow(id).admitted);
  sim.run();  // Must not hang.
  EXPECT_TRUE(sim.idle());
}

TEST(FluidSim, SameHostFlowRejected) {
  auto f = small_fabric();
  FluidSim sim(f);
  FlowId id = sim.inject(make_spec(f, 0, 1, 1_MiB));
  EXPECT_FALSE(sim.flow(id).admitted);
}

TEST(FluidSim, DegradedLinkSlowsFlow) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  auto spec = make_spec(f, 0, dst, 10_MiB, 7);
  auto path = sim.predict_path(spec);
  ASSERT_TRUE(path.has_value());
  sim.degrade_link(path->at(1), 0.25);  // damaged optical module on ToR->Agg
  FlowId id = sim.inject(spec);
  sim.run();
  Seconds degraded = core::transfer_time(10_MiB, gbps(100));  // 400G * 0.25
  EXPECT_NEAR(sim.flow(id).finish, degraded, degraded * 0.02);
}

// A flow whose path crosses a zero-capacity link stalls at rate 0: its
// finish is infinite, so it keeps every byte and never completes. A
// bounded run parks at its deadline; an unbounded one returns at once (a
// fail-hang) with the clock where it was.
TEST(FluidSim, BlockedLinkHangsUntilDeadline) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  auto spec = make_spec(f, 0, dst, 10_MiB, 9);
  auto path = sim.predict_path(spec);
  ASSERT_TRUE(path.has_value());
  sim.degrade_link(path->at(1), 0.0);  // silent blackhole -> fail-hang
  FlowId id = sim.inject(spec);
  sim.run(1.0);
  EXPECT_LT(sim.flow(id).finish, 0.0);  // never finished
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_EQ(sim.current_rate(id), 0.0);
  EXPECT_EQ(sim.remaining(id), static_cast<double>(10_MiB));
  EXPECT_EQ(sim.backlog(), 10_MiB);
  sim.run();
  EXPECT_EQ(sim.now(), 1.0);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.remaining(id), static_cast<double>(10_MiB));
  EXPECT_LT(sim.flow(id).finish, 0.0);
}

TEST(FluidSim, EcnMarksAccrueUnderOverload) {
  auto f = small_fabric();
  FluidSim sim(f);
  // Many flows from different hosts, same destination NIC: the ToR->host
  // downlink is overloaded several-fold.
  int rails = f.params().rails;
  int dst = 0;
  for (int h = 1; h < 6; ++h) {
    sim.inject(make_spec(f, h * rails, dst, 20_MiB, static_cast<std::uint64_t>(h)));
  }
  sim.run();
  std::uint64_t total_ecn = 0;
  std::uint64_t total_pfc = 0;
  for (std::size_t l = 0; l < f.topo().link_count(); ++l) {
    total_ecn += sim.link_stats(static_cast<topo::LinkId>(l)).ecn_marks;
    total_pfc += sim.link_stats(static_cast<topo::LinkId>(l)).pfc_pauses;
  }
  EXPECT_GT(total_ecn, 0u);
  EXPECT_GT(total_pfc, 0u);  // 5x overload exceeds the PFC threshold
}

TEST(FluidSim, HopLatencyGrowsWithCongestion) {
  auto f = small_fabric();
  FluidSim::Config cfg;
  FluidSim sim(f, cfg);
  int rails = f.params().rails;
  auto spec0 = make_spec(f, rails, 0, 200_MiB, 1);
  auto path = sim.predict_path(spec0);
  ASSERT_TRUE(path.has_value());
  topo::LinkId last_hop = path->back();
  sim.inject(spec0);
  for (int h = 2; h < 6; ++h) {
    sim.inject(make_spec(f, h * rails, 0, 200_MiB, static_cast<std::uint64_t>(h)));
  }
  sim.run(core::msec(1));  // sample mid-transfer
  EXPECT_GT(sim.hop_latency(last_hop), cfg.base_hop_latency * 10);
  EXPECT_LE(sim.hop_latency(last_hop), cfg.base_hop_latency + cfg.max_queue_delay);
  sim.run();
  EXPECT_TRUE(sim.idle());
}

TEST(FluidSim, BytesForwardedMatchesFlowSizes) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  auto spec = make_spec(f, 0, dst, 8_MiB, 3);
  FlowId id = sim.inject(spec);
  sim.run();
  const auto& st = sim.flow(id);
  for (topo::LinkId l : st.path) {
    EXPECT_NEAR(sim.link_stats(l).bytes_forwarded, static_cast<double>(8_MiB),
                static_cast<double>(8_MiB) * 1e-6);
  }
}

TEST(FluidSim, RunUntilPausesAndResumes) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  FlowId id = sim.inject(make_spec(f, 0, dst, 25_MiB, 1));
  Seconds full = core::transfer_time(25_MiB, gbps(200));
  sim.run(full / 2);
  EXPECT_LT(sim.flow(id).finish, 0.0);
  EXPECT_GT(sim.remaining(id), 0.0);
  sim.run();
  EXPECT_NEAR(sim.flow(id).finish, full, full * 0.01);
}

TEST(FluidSim, RunWatchReturnsWhenWatchedFlowsFinish) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  // A short watched flow plus an endless background flow on another rail.
  auto bg_spec = make_spec(f, 2, dst + 2, static_cast<core::Bytes>(1) << 50, 50);
  sim.inject(bg_spec);
  FlowId watched = sim.inject(make_spec(f, 0, dst, 10_MiB, 51));
  std::vector<FlowId> watch{watched};
  sim.run_watch(watch);
  EXPECT_GE(sim.flow(watched).finish, 0.0);
  EXPECT_FALSE(sim.idle());  // background still running
}

TEST(FluidSim, RunWatchSharesBandwidthWithBackground) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  // Background pinned to the same NIC port (identical 5-tuple hash):
  // the watched flow gets half rate.
  auto bg = make_spec(f, 0, dst, static_cast<core::Bytes>(1) << 50, 60);
  bg.src_port = 7777;
  sim.inject(bg);
  auto w = make_spec(f, 0, dst, 10_MiB, 61);
  w.src_port = 7777;
  FlowId watched = sim.inject(w);
  std::vector<FlowId> watch{watched};
  sim.run_watch(watch);
  Seconds shared = core::transfer_time(20_MiB, gbps(200));
  EXPECT_NEAR(sim.flow(watched).finish, shared, shared * 0.05);
}

// The QP rate monitor and the INT view sample between runs, so a run that
// returns on a completion must publish the post-completion solution. Both
// returns that leave flows active are covered: run_watch's, and a bounded
// run whose deadline is the completion instant.
TEST(FluidSim, RatesAreFreshWhenARunEndsOnACompletion) {
  topo::FabricParams p;
  p.rails = 2;
  p.hosts_per_block = 2;
  p.pods = 1;
  topo::Fabric f(p);
  const int dst = p.rails * p.hosts_per_block;  // next block, rail 0
  auto bg = make_spec(f, 0, dst, 64_GiB, 1);
  auto small = make_spec(f, 0, dst, 8_MiB, 2);
  bg.src_port = small.src_port = 7777;  // identical 5-tuple hash: same path

  FluidSim::Config cfg;
  auto expect_fresh = [&](const FluidSim& sim, FlowId b, FlowId s) {
    ASSERT_GE(sim.flow(s).finish, 0.0);
    ASSERT_EQ(sim.flow(b).path, sim.flow(s).path);
    const auto& path = sim.flow(b).path;
    double line_rate = sim.effective_capacity(path.front());
    for (topo::LinkId l : path) line_rate = std::min(line_rate, sim.effective_capacity(l));
    EXPECT_EQ(sim.current_rate(b), line_rate);
    EXPECT_EQ(sim.hop_latency(path.front()), cfg.base_hop_latency);
  };

  FluidSim watched(f, cfg);
  const FlowId wb = watched.inject(bg);
  const FlowId ws = watched.inject(small);
  const std::vector<FlowId> watch{ws};
  watched.run_watch(watch);
  expect_fresh(watched, wb, ws);

  FluidSim bounded(f, cfg);
  const FlowId bb = bounded.inject(bg);
  const FlowId bs = bounded.inject(small);
  bounded.run(watched.flow(ws).finish);
  EXPECT_EQ(bounded.now(), watched.flow(ws).finish);
  expect_fresh(bounded, bb, bs);
}

TEST(FluidSim, IdleFabricReportsNoPhantomQueueing) {
  auto f = small_fabric();
  FluidSim::Config cfg;
  FluidSim sim(f, cfg);
  // Overload one destination NIC several-fold, then let everything drain.
  int rails = f.params().rails;
  for (int h = 1; h < 6; ++h) {
    sim.inject(make_spec(f, h * rails, 0, 20_MiB, static_cast<std::uint64_t>(h)));
  }
  sim.run(core::msec(1));
  bool congested_mid_run = false;
  for (std::size_t l = 0; l < f.topo().link_count(); ++l) {
    if (sim.hop_latency(static_cast<topo::LinkId>(l)) > cfg.base_hop_latency) {
      congested_mid_run = true;
    }
  }
  EXPECT_TRUE(congested_mid_run);
  sim.run();
  ASSERT_TRUE(sim.idle());
  // Regression: overloads must clear when the last flow completes; the
  // INT/pingmesh view previously kept reporting phantom queueing.
  for (std::size_t l = 0; l < f.topo().link_count(); ++l) {
    EXPECT_EQ(sim.hop_latency(static_cast<topo::LinkId>(l)), cfg.base_hop_latency)
        << "link " << l << " reports queueing on an idle fabric";
  }
}

TEST(FluidSim, DegradeMidRunKeepsPriorIntervalAttribution) {
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  auto spec = make_spec(f, 0, dst, 25_MiB, 1);
  auto path = sim.predict_path(spec);
  ASSERT_TRUE(path.has_value());
  FlowId id = sim.inject(spec);
  Seconds half = core::transfer_time(25_MiB, gbps(200)) / 2;
  sim.run(half);
  // The first half ran at full rate: counters for that interval must be
  // attributed at pre-degradation rates/overloads, and degrading must not
  // retroactively change them.
  double bytes_before = sim.link_stats(path->front()).bytes_forwarded;
  double busy_before = sim.link_stats(path->front()).busy_time;
  EXPECT_NEAR(bytes_before, static_cast<double>(25_MiB) / 2,
              static_cast<double>(25_MiB) * 1e-6);
  sim.degrade_link(path->at(1), 0.25);
  EXPECT_DOUBLE_EQ(sim.link_stats(path->front()).bytes_forwarded, bytes_before);
  EXPECT_DOUBLE_EQ(sim.link_stats(path->front()).busy_time, busy_before);
  sim.run();
  // Second half at 100G: total time = half + 4*half of the remaining.
  Seconds expected = half + core::transfer_time(25_MiB, gbps(100)) / 2;
  EXPECT_NEAR(sim.flow(id).finish, expected, expected * 0.02);
  EXPECT_NEAR(sim.link_stats(path->front()).bytes_forwarded,
              static_cast<double>(25_MiB), static_cast<double>(25_MiB) * 1e-5);
}

TEST(FluidSim, RecycleFinishedCampaignPreservesInvariants) {
  auto f = small_fabric();
  FluidSim sim(f);
  int rails = f.params().rails;
  int dst = rails * f.params().hosts_per_block;
  Seconds per_iter = core::transfer_time(8_MiB, gbps(200));
  std::vector<FlowId> iter_ids;
  Seconds first_duration = -1.0;
  for (int iter = 0; iter < 100; ++iter) {
    Seconds t0 = sim.now();
    iter_ids.clear();
    // A same-start wave plus one flow arriving mid-iteration (pending
    // while backlog() is sampled).
    for (int i = 0; i < 4; ++i) {
      auto spec = make_spec(f, i * rails, dst + i * rails, 8_MiB,
                            static_cast<std::uint64_t>(iter * 10 + i));
      spec.start = t0;
      iter_ids.push_back(sim.inject(spec));
    }
    auto late = make_spec(f, 4 * rails, dst, 2_MiB, static_cast<std::uint64_t>(iter * 10 + 9));
    late.start = t0 + per_iter / 4;
    FlowId late_id = sim.inject(late);
    // Mid-iteration: pending flow must be counted in the backlog.
    sim.run(t0 + per_iter / 8);
    EXPECT_GE(sim.backlog(), static_cast<core::Bytes>(2_MiB));
    sim.run();
    ASSERT_TRUE(sim.idle());
    EXPECT_EQ(sim.backlog(), 0u);
    for (FlowId id : iter_ids) EXPECT_GE(sim.flow(id).finish, 0.0);
    EXPECT_GE(sim.flow(late_id).finish, 0.0);
    Seconds duration = sim.now() - t0;
    if (iter == 0) {
      first_duration = duration;
    } else {
      // Recycled state must not leak into later iterations' results.
      EXPECT_NEAR(duration, first_duration, first_duration * 1e-9);
    }
    sim.recycle_finished();
    // Paths freed for every finished flow.
    for (FlowId id : iter_ids) {
      EXPECT_TRUE(sim.flow(id).path.empty());
      EXPECT_EQ(sim.flow(id).path.capacity(), 0u);
    }
  }
  // Counters survive recycling: 100 iterations of 4x8MiB + 1x2MiB.
  double total_bytes = 0.0;
  for (std::size_t l = 0; l < f.topo().link_count(); ++l) {
    total_bytes += sim.link_stats(static_cast<topo::LinkId>(l)).bytes_forwarded;
  }
  // Each flow crosses >= 4 links; lower-bound the aggregate.
  EXPECT_GT(total_bytes, 100 * 4 * static_cast<double>(8_MiB));
  EXPECT_EQ(sim.flow_count(), 500u);
}

// recycle_finished frees exactly the flows that finished or were aborted
// (active or pending) since the last call; active and pending flows keep
// their paths, and a finished flow's path stays readable until the call.
TEST(FluidSim, RecycleFinishedReleasesOnlyRetiredPaths) {
  auto f = small_fabric();
  FluidSim sim(f);
  const int rails = f.params().rails;
  const int dst = rails * f.params().hosts_per_block;
  const FlowId done = sim.inject(make_spec(f, 0, dst, 1_MiB, 1));
  const FlowId running = sim.inject(make_spec(f, rails, dst + rails, 64_MiB, 2));
  const FlowId killed = sim.inject(make_spec(f, 2 * rails, dst + 2 * rails, 64_MiB, 3));
  auto later = make_spec(f, 3 * rails, dst + 3 * rails, 8_MiB, 4);
  later.start = 1.0;
  const FlowId waiting = sim.inject(later);
  later.tag = 5;
  const FlowId dropped = sim.inject(later);

  sim.run(core::transfer_time(1_MiB, gbps(200)) * 2);
  ASSERT_GE(sim.flow(done).finish, 0.0);
  EXPECT_FALSE(sim.flow(done).path.empty());  // readable until recycled
  sim.abort_flow(killed);
  sim.abort_flow(dropped);
  sim.recycle_finished();

  for (FlowId id : {done, killed, dropped}) {
    EXPECT_TRUE(sim.flow(id).path.empty()) << "flow " << id;
    EXPECT_EQ(sim.flow(id).path.capacity(), 0u) << "flow " << id;
  }
  for (FlowId id : {running, waiting}) {
    EXPECT_FALSE(sim.flow(id).path.empty()) << "flow " << id;
  }

  // The survivors still finish, and a second call frees them.
  sim.run();
  EXPECT_GE(sim.flow(running).finish, 0.0);
  EXPECT_GE(sim.flow(waiting).finish, 0.0);
  sim.recycle_finished();
  for (FlowId id : {running, waiting}) EXPECT_TRUE(sim.flow(id).path.empty());
}

// The zoo fabrics the churn script runs on: every style, dual-ToR on and
// off.
std::vector<topo::FabricParams> churn_zoo() {
  std::vector<topo::FabricParams> zoo;
  for (topo::FabricStyle style : topo::kAllFabricStyles) {
    for (bool dual : {true, false}) {
      topo::FabricParams p;
      p.style = style;
      p.rails = 4;
      p.hosts_per_block = 4;
      p.blocks_per_pod = 2;
      p.pods = 2;
      p.dual_tor = dual;
      zoo.push_back(p);
    }
  }
  return zoo;
}

std::string zoo_name(const topo::FabricParams& p) {
  return std::string(topo::to_string(p.style)) + (p.dual_tor ? "/dual" : "/single");
}

// A seeded churn script: 80 steps, each injecting a few arrivals spread
// over the next 50 us, taking one random action (reset_stats, a degrade
// to 0.4 or to 0, an abort, a link-down on a live path plus reroute,
// bringing the downed links back up, or nothing) and running up to 100 us
// further. `on_reset(n)` runs right after the n-th reset, `on_step(step)`
// after each step's run. Returns the number of resets.
template <typename OnReset, typename OnStep>
int run_zoo_churn(topo::Fabric& f, FluidSim& sim, std::uint64_t seed, OnReset on_reset,
                  OnStep on_step) {
  core::Rng rng(seed);
  const std::size_t nlinks = f.topo().link_count();
  const int gpus = f.params().gpu_count();
  std::vector<topo::LinkId> downed;
  int resets = 0;
  for (int step = 0; step < 80; ++step) {
    for (int k = static_cast<int>(rng.uniform_int(4)); k > 0; --k) {
      const int a = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(gpus)));
      const int b = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(gpus)));
      FlowSpec s = make_spec(f, a, b, (1 + rng.uniform_int(64)) * 16_KiB,
                             static_cast<std::uint64_t>(step));
      s.start = sim.now() + rng.uniform(0.0, 50e-6);
      sim.inject(s);
    }
    switch (rng.uniform_int(6)) {
      case 0:
        sim.reset_stats();
        on_reset(++resets);
        break;
      case 1:
        sim.degrade_link(static_cast<topo::LinkId>(rng.uniform_int(nlinks)),
                         rng.uniform_int(3) == 0 ? 0.0 : 0.4);
        break;
      case 2:
        if (!sim.active_flows().empty()) {
          sim.abort_flow(sim.active_flows()[rng.uniform_int(sim.active_flows().size())]);
        }
        break;
      case 3:
        if (!sim.active_flows().empty()) {
          const auto& path =
              sim.flow(sim.active_flows()[rng.uniform_int(sim.active_flows().size())]).path;
          if (!path.empty()) {
            const topo::LinkId l = path[rng.uniform_int(path.size())];
            sim.set_link_up(l, false);
            downed.push_back(l);
            sim.reroute_flows();
          }
        }
        break;
      case 4:
        for (topo::LinkId l : downed) sim.set_link_up(l, true);
        downed.clear();
        break;
      default:
        break;
    }
    sim.run(sim.now() + rng.uniform(0.0, 100e-6));
    on_step(step);
  }
  return resets;
}

// reset_stats() and counter collectors visit only touched links, which
// is exact only if every link outside the touched list reads LinkStats{}
// bit for bit. Churn with resets at random points, degrades (including
// blackholes), aborts, and link-downs with reroutes tries to break that.
TEST(FluidSim, UntouchedLinksReadZeroStats) {
  auto zero = [](const LinkStats& ls) {
    const LinkStats z{};
    return std::memcmp(&ls, &z, sizeof z) == 0;
  };
  std::uint64_t seed = 1;
  for (const topo::FabricParams& p : churn_zoo()) {
    SCOPED_TRACE(zoo_name(p));
    topo::Fabric f(p);
    FluidSim sim(f);
    const std::size_t nlinks = f.topo().link_count();
    const int resets = run_zoo_churn(
        f, sim, seed++,
        [&](int n) {
          for (std::size_t l = 0; l < nlinks; ++l) {
            ASSERT_TRUE(zero(sim.link_stats(static_cast<topo::LinkId>(l))))
                << "link " << l << " after reset " << n;
          }
        },
        [&](int step) {
          const auto touched = sim.touched_links();
          const std::set<topo::LinkId> listed(touched.begin(), touched.end());
          ASSERT_EQ(listed.size(), touched.size()) << "duplicate in the touched list";
          for (std::size_t l = 0; l < nlinks; ++l) {
            if (listed.count(static_cast<topo::LinkId>(l)) == 0) {
              ASSERT_TRUE(zero(sim.link_stats(static_cast<topo::LinkId>(l))))
                  << "untouched link " << l << " at step " << step;
            }
          }
        });
    EXPECT_GT(resets, 0);
    EXPECT_LT(sim.touched_links().size(), nlinks);
  }
}

// Stats integration, util tracing and PFC charging share one pass over
// the live links: attaching a tracer may only add trace events. Over the
// zoo churn script, every flow's finish, remaining bytes and rate and
// every link's LinkStats are bit-identical with and without a tracer,
// after every step.
TEST(FluidSim, TracerLeavesStatsAndRatesUnchanged) {
  std::uint64_t seed = 1;
  for (const topo::FabricParams& p : churn_zoo()) {
    SCOPED_TRACE(zoo_name(p));
    auto run = [&](obs::Tracer* tracer) {
      topo::Fabric f(p);
      FluidSim sim(f);
      sim.set_tracer(tracer);
      std::vector<std::uint64_t> bits;
      auto put = [&bits](double v) { bits.push_back(std::bit_cast<std::uint64_t>(v)); };
      run_zoo_churn(f, sim, seed, [](int) {}, [&](int) {
        for (FlowId id = 0; id < sim.flow_count(); ++id) {
          put(sim.flow(id).finish);
          put(sim.remaining(id));
          put(sim.current_rate(id));
        }
        for (std::size_t l = 0; l < f.topo().link_count(); ++l) {
          const LinkStats& ls = sim.link_stats(static_cast<topo::LinkId>(l));
          put(ls.bytes_forwarded);
          put(ls.busy_time);
          put(ls.util_time);
          bits.push_back(ls.ecn_marks);
          bits.push_back(ls.pfc_pauses);
          put(ls.peak_overload);
        }
      });
      return bits;
    };
    obs::Tracer tracer;
    const std::vector<std::uint64_t> plain = run(nullptr);
    const std::vector<std::uint64_t> traced = run(&tracer);
    ASSERT_EQ(plain.size(), traced.size());
    EXPECT_TRUE(plain == traced);
    std::size_t util_samples = 0;
    for (const auto& ev : tracer.events(obs::Track::Link)) {
      if (ev.phase == obs::TraceEvent::Phase::Counter && std::string_view(ev.name) == "util") {
        ++util_samples;
      }
    }
    EXPECT_GT(util_samples, 0u);
    ++seed;
  }
}

// link_stats() returns the stored counters plus what is pending and
// commits nothing. Over the zoo churn script, a run that reads every
// link after every step ends with every LinkStats and every flow's finish
// bit-equal to a run that never reads. In the reading run no counter
// decreases between resets.
TEST(FluidSim, StatsReadsArePure) {
  std::uint64_t seed = 1;
  for (const topo::FabricParams& p : churn_zoo()) {
    SCOPED_TRACE(zoo_name(p));
    auto run = [&](bool read) {
      topo::Fabric f(p);
      FluidSim sim(f);
      const std::size_t nlinks = f.topo().link_count();
      std::vector<LinkStats> last(nlinks);
      run_zoo_churn(
          f, sim, seed, [&](int) { std::fill(last.begin(), last.end(), LinkStats{}); },
          [&](int step) {
            if (!read) return;
            for (std::size_t l = 0; l < nlinks; ++l) {
              const LinkStats ls = sim.link_stats(static_cast<topo::LinkId>(l));
              const LinkStats& was = last[l];
              ASSERT_TRUE(ls.bytes_forwarded >= was.bytes_forwarded &&
                          ls.busy_time >= was.busy_time && ls.util_time >= was.util_time &&
                          ls.ecn_marks >= was.ecn_marks && ls.pfc_pauses >= was.pfc_pauses &&
                          ls.peak_overload >= was.peak_overload)
                  << "a counter of link " << l << " decreased at step " << step;
              last[l] = ls;
            }
          });
      std::vector<std::uint64_t> bits;
      auto put = [&bits](double v) { bits.push_back(std::bit_cast<std::uint64_t>(v)); };
      for (FlowId id = 0; id < sim.flow_count(); ++id) put(sim.flow(id).finish);
      for (std::size_t l = 0; l < nlinks; ++l) {
        const LinkStats ls = sim.link_stats(static_cast<topo::LinkId>(l));
        put(ls.bytes_forwarded);
        put(ls.busy_time);
        put(ls.util_time);
        bits.push_back(ls.ecn_marks);
        bits.push_back(ls.pfc_pauses);
        put(ls.peak_overload);
      }
      return bits;
    };
    const std::vector<std::uint64_t> quiet = run(false);
    const std::vector<std::uint64_t> reading = run(true);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_TRUE(quiet == reading);
    ++seed;
  }
}

TEST(FluidSim, InjectBatchMatchesSequentialInject) {
  auto f = small_fabric();
  int dst = f.params().rails * f.params().hosts_per_block;
  std::vector<FlowSpec> specs;
  for (int i = 0; i < 6; ++i) {
    auto s = make_spec(f, (i % 3) * f.params().rails, dst + (i % 2) * f.params().rails,
                       6_MiB, static_cast<std::uint64_t>(i));
    s.start = i < 4 ? 0.0 : core::usec(40);
    specs.push_back(s);
  }
  FluidSim seq(f);
  for (const auto& s : specs) seq.inject(s);
  seq.run();
  FluidSim bat(f);
  auto ids = bat.inject_batch(specs);
  ASSERT_EQ(ids.size(), specs.size());
  bat.run();
  EXPECT_DOUBLE_EQ(bat.now(), seq.now());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(bat.flow(ids[i]).finish, seq.flow(static_cast<FlowId>(i)).finish);
  }
}

TEST(FluidSim, RunForeverSentinel) {
  EXPECT_FALSE(is_bounded(kRunForever));
  EXPECT_TRUE(is_bounded(1.0));
  auto f = small_fabric();
  FluidSim sim(f);
  int dst = f.params().rails * f.params().hosts_per_block;
  FlowId id = sim.inject(make_spec(f, 0, dst, 10_MiB, 1));
  sim.run(kRunForever);  // explicit sentinel: drain, don't park the clock
  EXPECT_GE(sim.flow(id).finish, 0.0);
  EXPECT_DOUBLE_EQ(sim.now(), sim.flow(id).finish);
  sim.run(5.0);  // bounded deadline on an idle sim parks the clock
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// The active set is the solver's canonical order, so admission order is
// (start, id) whatever the queue holds: a wave injected one by one or as
// one batch, single injections made mid-run with starts earlier than some
// already queued (and some tying with them), an unsorted batch merged
// into a non-empty queue, and a queued flow aborted from the middle of
// the queue, which never starts. At every check the active set is the
// admitted flows in (start, id) order and backlog() counts exactly the
// flows that remain.
TEST(FluidSim, SameStartArrivalsAdmitInInjectionOrder) {
  auto f = small_fabric();
  const int gpus = f.gpu_count();
  enum class Case { Inject, Batch, MidRunInject, UnsortedBatchIntoQueue, AbortQueued };
  const std::pair<Case, const char*> cases[] = {
      {Case::Inject, "inject"},
      {Case::Batch, "inject_batch"},
      {Case::MidRunInject, "mid-run inject"},
      {Case::UnsortedBatchIntoQueue, "unsorted batch into a queue"},
      {Case::AbortQueued, "abort mid-queue"},
  };
  for (const auto& [which, name] : cases) {
    SCOPED_TRACE(name);
    FluidSim sim(f);
    core::Rng rng(5);
    auto random_spec = [&](std::uint64_t tag) {
      const int a = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(gpus)));
      const int b = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(gpus)));
      return make_spec(f, a, b, 64_MiB, tag);
    };
    std::vector<FlowSpec> specs;
    for (int i = 0; i < 96; ++i) {
      FlowSpec s = random_spec(static_cast<std::uint64_t>(i));
      s.start = rng.uniform_int(2) == 0 ? 1e-6 * static_cast<double>(rng.uniform_int(3))
                                        : rng.uniform(0.0, 4e-6);
      specs.push_back(s);
    }
    std::vector<FlowId> ids;
    if (which == Case::Inject) {
      for (const FlowSpec& s : specs) ids.push_back(sim.inject(s));
    } else {
      ids = sim.inject_batch(specs);
    }

    // Every admitted flow that started by `t` and was not aborted, in
    // (start, id) order (ids ascend in `ids`); the backlog of every flow
    // that remains.
    auto check = [&](Seconds t) {
      std::vector<FlowId> want;
      double remains = 0.0;
      for (FlowId id : ids) {
        const FlowState& st = sim.flow(id);
        if (!st.admitted || st.aborted) continue;
        if (st.spec.start <= t) want.push_back(id);
        remains += sim.remaining(id);
      }
      std::stable_sort(want.begin(), want.end(), [&](FlowId x, FlowId y) {
        return sim.flow(x).spec.start < sim.flow(y).spec.start;
      });
      const auto active = sim.active_flows();
      EXPECT_TRUE(std::equal(want.begin(), want.end(), active.begin(), active.end()));
      EXPECT_NEAR(static_cast<double>(sim.backlog()), remains, 1.0);
    };
    sim.run(2.5e-6);
    check(2.5e-6);

    // The queue in admission order: admitted flows not started yet.
    std::vector<FlowId> queued;
    for (FlowId id : ids) {
      if (sim.flow(id).admitted && !sim.flow(id).started) queued.push_back(id);
    }
    std::stable_sort(queued.begin(), queued.end(), [&](FlowId x, FlowId y) {
      return sim.flow(x).spec.start < sim.flow(y).spec.start;
    });
    ASSERT_GE(queued.size(), 8u);
    const Seconds tail = sim.flow(queued.back()).spec.start;

    FlowId aborted = kInvalidFlow;
    if (which == Case::MidRunInject || which == Case::UnsortedBatchIntoQueue) {
      // Starts from now to past the queued tail, in random order; every
      // fourth ties with a queued flow's start.
      std::vector<FlowSpec> more;
      for (int i = 0; i < 32; ++i) {
        FlowSpec s = random_spec(static_cast<std::uint64_t>(100 + i));
        s.start = i % 4 == 0 ? sim.flow(queued[rng.uniform_int(queued.size())]).spec.start
                             : rng.uniform(2.5e-6, 6e-6);
        more.push_back(s);
      }
      Seconds first = more.front().start;
      for (const FlowSpec& s : more) first = std::min(first, s.start);
      ASSERT_LT(first, tail);
      if (which == Case::MidRunInject) {
        for (const FlowSpec& s : more) ids.push_back(sim.inject(s));
      } else {
        ASSERT_FALSE(std::is_sorted(more.begin(), more.end(),
                                    [](const FlowSpec& a, const FlowSpec& b) {
                                      return a.start < b.start;
                                    }));
        for (FlowId id : sim.inject_batch(more)) ids.push_back(id);
      }
    } else if (which == Case::AbortQueued) {
      aborted = queued[queued.size() / 2];
      sim.abort_flow(aborted);
    }
    check(2.5e-6);
    sim.run(3.5e-6);
    check(3.5e-6);
    sim.run(8e-6);
    check(8e-6);
    if (aborted != kInvalidFlow) {
      EXPECT_TRUE(sim.flow(aborted).aborted);
      EXPECT_FALSE(sim.flow(aborted).started);
    }
  }
}

TEST(FluidSim, DeterministicAcrossRuns) {
  for (int trial = 0; trial < 2; ++trial) {
    static Seconds first_finish = -1;
    auto f = small_fabric();
    FluidSim sim(f);
    for (int i = 0; i < 8; ++i) {
      sim.inject(make_spec(f, i * f.params().rails % f.gpu_count(),
                           (i * f.params().rails + f.params().rails * 5) % f.gpu_count(),
                           4_MiB, static_cast<std::uint64_t>(i)));
    }
    sim.run();
    if (trial == 0) {
      first_finish = sim.now();
    } else {
      EXPECT_DOUBLE_EQ(sim.now(), first_finish);
    }
  }
}

// Shard telemetry is opt-in: with cfg.shard_telemetry the sharded solver
// reports shard counters and a per-shard solve-time histogram. It writes
// no span: a wall-clock solve time does not belong on the sim-time Link
// track, even with a tracer attached.
TEST(FluidSim, ShardTelemetryEmitsCountersAndNoSpans) {
  auto f = small_fabric();
  FluidSimConfig cfg;
  cfg.shard_telemetry = true;
  FluidSim sim(f, cfg);
  obs::Metrics metrics;
  obs::Tracer tracer;
  sim.set_metrics(&metrics);
  sim.set_tracer(&tracer);
  for (int i = 0; i < 16; ++i) {
    sim.inject(make_spec(f, i % 8, (i + 3) % 8, 4_MiB, static_cast<std::uint64_t>(i)));
  }
  sim.run(core::usec(10));
  sim.resolve_rates();

  EXPECT_GT(metrics.counter("fluidsim.solves.sharded"), 0u);
  EXPECT_GT(metrics.counter("fluidsim.shards.solved"), 0u);
  const obs::Histogram* h = metrics.find_histogram("fluidsim.shard_solve_us");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
  EXPECT_GT(metrics.gauge("fluidsim.shards"), 1.0);
  for (const auto& ev : tracer.events(obs::Track::Link)) {
    EXPECT_NE(std::string_view(ev.name), "solver.shard");
  }
  EXPECT_GT(sim.solver_shard_count(), 1u);
}

// With telemetry off (the default), the solver adds no per-shard entries
// to the registry or the trace, so metric snapshots and golden traces
// carry no wall-clock shard timings.
TEST(FluidSim, ShardTelemetryOffAddsNoMetrics) {
  auto f = small_fabric();
  FluidSim sim(f);
  obs::Metrics metrics;
  obs::Tracer tracer;
  sim.set_metrics(&metrics);
  sim.set_tracer(&tracer);
  for (int i = 0; i < 16; ++i) {
    sim.inject(make_spec(f, i % 8, (i + 3) % 8, 4_MiB, static_cast<std::uint64_t>(i)));
  }
  sim.run(core::usec(10));
  sim.resolve_rates();

  EXPECT_EQ(metrics.counter("fluidsim.solves.sharded"), 0u);
  EXPECT_EQ(metrics.counter("fluidsim.shards.solved"), 0u);
  EXPECT_EQ(metrics.find_histogram("fluidsim.shard_solve_us"), nullptr);
  for (const auto& ev : tracer.events(obs::Track::Link)) {
    EXPECT_NE(std::string_view(ev.name), "solver.shard");
  }
}

// A flow keeps its bytes left at the instant its rate last changed and
// integrates from there. Mid-flight, remaining() and backlog() read what
// the rate history gives: flow one runs alone at line rate, then shares
// its NIC uplink with flow two from two's start on.
TEST(LazyDrain, RemainingAndBacklogFollowTheRateHistory) {
  topo::FabricParams params = small_fabric().params();
  params.dual_tor = false;  // one uplink per NIC, so the two flows share it
  topo::Fabric f(params);
  FluidSim sim(f);
  const int rails = f.params().rails;
  const int dst = rails * f.params().hosts_per_block;
  const double size = static_cast<double>(64_MiB);
  const FlowId one = sim.inject(make_spec(f, 0, dst, 64_MiB, 1));
  FlowSpec late = make_spec(f, 0, dst + rails, 64_MiB, 2);  // same source NIC
  const Seconds t2 = 100e-6;
  late.start = t2;
  const FlowId two = sim.inject(late);

  sim.run(50e-6);
  const double alone = sim.current_rate(one);
  EXPECT_GT(alone, 0.0);
  EXPECT_DOUBLE_EQ(sim.remaining(one), size - alone * 50e-6 / 8.0);
  EXPECT_EQ(sim.remaining(two), size);  // pending: its whole size
  EXPECT_NEAR(static_cast<double>(sim.backlog()), 2 * size - alone * 50e-6 / 8.0, 1.0);

  sim.run(300e-6);
  const double shared = sim.current_rate(one);
  EXPECT_DOUBLE_EQ(shared, alone / 2);
  EXPECT_DOUBLE_EQ(sim.current_rate(two), shared);
  const double want_one = size - alone * t2 / 8.0 - shared * (300e-6 - t2) / 8.0;
  const double want_two = size - shared * (300e-6 - t2) / 8.0;
  EXPECT_DOUBLE_EQ(sim.remaining(one), want_one);
  EXPECT_DOUBLE_EQ(sim.remaining(two), want_two);
  EXPECT_NEAR(static_cast<double>(sim.backlog()), want_one + want_two, 1.0);

  sim.run();
  EXPECT_EQ(sim.remaining(one), 0.0);
  EXPECT_EQ(sim.remaining(two), 0.0);
  EXPECT_EQ(sim.backlog(), 0u);
}

// resolve_rates() re-solves every shard from unchanged inputs, so between
// events it moves no bit: a flow re-bases only when its rate bits change
// and a row folds only when its values do. Over the zoo churn script, a
// run that calls resolve_rates() after every step reads the same rates,
// remaining bytes and counters right after each call, and ends bit-equal
// to a run that never calls it. Peak overloads are left out: after
// reset_stats() the next full solve raises every live link's peak to its
// overload, and resolve_rates() is a full solve.
TEST(LazyDrain, ResolveRatesBetweenEventsMovesNoBit) {
  std::uint64_t seed = 1;
  for (const topo::FabricParams& p : churn_zoo()) {
    SCOPED_TRACE(zoo_name(p));
    auto snapshot = [](const FluidSim& sim) {
      std::vector<std::uint64_t> bits;
      auto put = [&bits](double v) { bits.push_back(std::bit_cast<std::uint64_t>(v)); };
      for (FlowId id = 0; id < sim.flow_count(); ++id) {
        put(sim.flow(id).finish);
        put(sim.remaining(id));
        put(sim.current_rate(id));
      }
      for (std::size_t l = 0; l < sim.fabric().topo().link_count(); ++l) {
        const LinkStats ls = sim.link_stats(static_cast<topo::LinkId>(l));
        put(ls.bytes_forwarded);
        put(ls.busy_time);
        put(ls.util_time);
        bits.push_back(ls.ecn_marks);
        bits.push_back(ls.pfc_pauses);
      }
      return bits;
    };
    auto run = [&](bool resolve) {
      topo::Fabric f(p);
      FluidSim sim(f);
      run_zoo_churn(f, sim, seed, [](int) {}, [&](int step) {
        if (!resolve) return;
        const std::vector<std::uint64_t> before = snapshot(sim);
        sim.resolve_rates();
        EXPECT_TRUE(snapshot(sim) == before) << "resolve_rates moved a bit at step " << step;
      });
      return snapshot(sim);
    };
    EXPECT_TRUE(run(false) == run(true));
    ++seed;
  }
}

}  // namespace
}  // namespace astral::net
