// Pins the shard partition the max-min solver keeps across events (see
// shard_solver.h): every event re-solves only the shards it touched, so a
// shard the maintenance skipped must already hold exactly the rates a
// fresh solve would give it.
//
// Two kinds of checks:
//
//  * A bitwise pin. A scripted churn — staggered arrival waves that merge
//    shards, completions that split them, aborts of an active flow (which
//    leaves the active set in place) and of a pending one, degradations
//    down to zero, a link failure with reroute_flows, the link's return,
//    reset_stats, resolve_rates and run_watch — runs on four fabric
//    styles, with and without dual-ToR wiring and core oversubscription,
//    under three marking configurations: the default one, ECN marking
//    off (no ECN mark mass) and ECN and PFC rates of 1e8/s (mark masses
//    far above 1 per change point). At every checkpoint two FNV-1a
//    digests are taken over hex values. The exact one covers every flow's
//    rate, finish and remaining bytes and every link's hop latency, ECN
//    marks, PFC pauses and peak overload. The integrated one covers each
//    link's bytes forwarded, busy time and util time. The digests are
//    checked in and compared at 1 and 4 lanes; intentional
//    changes regenerate them with
//
//      GOLDEN_REGEN=1 ./build/tests/net_shard_maintenance_test
//
//    and commit the updated tests/fixtures/solver_churn.golden.txt.
//
//  * Partition invariants after every event of a seeded sweep: the
//    solver's shard count equals the number of connected components of
//    the active paths (a partition that never splits fails), a forced
//    resolve_rates() moves no rate and no hop latency by a single bit
//    (every skipped shard held exact rates), and a link no active flow
//    crosses publishes zero rate and the base hop latency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "net/fluid_sim.h"
#include "obs/metrics.h"

namespace astral::net {
namespace {

// Injected by tests/CMakeLists.txt; points at the source-tree fixtures.
#ifndef GOLDEN_FIXTURE_DIR
#error "GOLDEN_FIXTURE_DIR must be defined"
#endif

const char* kFixturePath = GOLDEN_FIXTURE_DIR "/solver_churn.golden.txt";

using core::Seconds;

struct Scenario {
  const char* name;
  topo::FabricStyle style;
  bool dual_tor;
  double tier3_oversub;
  std::uint64_t seed;
};

const Scenario kScenarios[] = {
    {"astral-dual-oversub2", topo::FabricStyle::AstralSameRail, true, 2.0, 11},
    {"astral-single", topo::FabricStyle::AstralSameRail, false, 1.0, 12},
    {"railopt-dual", topo::FabricStyle::RailOptimized, true, 1.0, 13},
    {"railopt-single-oversub2", topo::FabricStyle::RailOptimized, false, 2.0, 14},
    {"clos-dual-oversub2", topo::FabricStyle::Clos, true, 2.0, 15},
    {"clos-single", topo::FabricStyle::Clos, false, 1.0, 16},
    {"ubmesh-dual", topo::FabricStyle::UBMesh, true, 1.0, 17},
    {"ubmesh-single", topo::FabricStyle::UBMesh, false, 1.0, 18},
};

topo::FabricParams params_for(const Scenario& sc) {
  topo::FabricParams p;
  p.style = sc.style;
  p.rails = 4;
  p.hosts_per_block = 4;
  p.blocks_per_pod = 2;
  p.pods = 2;
  p.dual_tor = sc.dual_tor;
  p.tier3_oversub = sc.tier3_oversub;
  return p;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

// The digests of one checkpoint (see the header comment).
struct Digest {
  std::uint64_t exact = kFnvOffset;
  std::uint64_t integrated = kFnvOffset;
};

Digest digest(const FluidSim& sim) {
  Digest d;
  char buf[48];
  auto put = [&buf](std::uint64_t& h, double v) {
    const int n = std::snprintf(buf, sizeof buf, "%a;", v);
    h = fnv1a(h, buf, static_cast<std::size_t>(n));
  };
  auto put_count = [&buf](std::uint64_t& h, std::uint64_t v) {
    const int n = std::snprintf(buf, sizeof buf, "%llu;", static_cast<unsigned long long>(v));
    h = fnv1a(h, buf, static_cast<std::size_t>(n));
  };
  for (FlowId id = 0; id < sim.flow_count(); ++id) {
    put(d.exact, sim.current_rate(id));
    put(d.exact, sim.flow(id).finish);
    put(d.exact, sim.remaining(id));
  }
  const std::size_t nlinks = sim.fabric().topo().link_count();
  for (std::size_t l = 0; l < nlinks; ++l) {
    const auto id = static_cast<topo::LinkId>(l);
    put(d.exact, sim.hop_latency(id));
    const LinkStats s = sim.link_stats(id);
    put_count(d.exact, s.ecn_marks);
    put_count(d.exact, s.pfc_pauses);
    put(d.exact, s.peak_overload);
    put(d.integrated, s.bytes_forwarded);
    put(d.integrated, s.busy_time);
    put(d.integrated, s.util_time);
  }
  return d;
}

// A marking configuration the churn script runs under; the name is
// appended to the scenario's in the fixture.
struct Marking {
  const char* name;
  double ecn_marks_per_flow_sec;
  double pfc_pauses_per_sec;
};

// ECN off makes every per-interval ECN increment 0. At 1e8/s most
// increments are far above 1, and the largest product stays below 2^64:
// a blackholed link's overload of 1e9 over the script's intervals of at
// most 1 s gives at most 1e17.
const Marking kMarkings[] = {
    {"", FluidSimConfig{}.ecn_marks_per_flow_sec, FluidSimConfig{}.pfc_pauses_per_sec},
    {"ecn-off", 0.0, FluidSimConfig{}.pfc_pauses_per_sec},
    {"heavy-marks", 1e8, 1e8},
};

std::string run_name(const Scenario& sc, const Marking& m) {
  return m.name[0] == '\0' ? std::string(sc.name) : std::string(sc.name) + "/" + m.name;
}

std::vector<FlowSpec> random_wave(const topo::Fabric& fabric, core::Rng& rng, int n,
                                  Seconds start, bool cross_pod, std::uint64_t tag0) {
  auto hosts = fabric.topo().hosts();
  const std::size_t half = hosts.size() / 2;
  const int rails = fabric.params().rails;
  std::vector<FlowSpec> specs;
  for (int i = 0; i < n; ++i) {
    FlowSpec s;
    const std::size_t a = rng.uniform_int(half);
    std::size_t b = rng.uniform_int(half);
    if (cross_pod) b += half;
    s.src_host = hosts[a];
    s.dst_host = hosts[b];
    s.src_rail = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(rails)));
    s.dst_rail = rng.chance(0.2)
                     ? static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(rails)))
                     : s.src_rail;
    s.size = (1 + rng.uniform_int(16)) * (1 << 20);
    s.start = start;
    s.src_port = static_cast<std::uint16_t>(rng.uniform_int(1 << 16));
    s.tag = tag0 + static_cast<std::uint64_t>(i);
    specs.push_back(s);
  }
  return specs;
}

// A link in the middle of some active flow's path (the rng picks which
// flow), or link 0 when nothing with a path is active.
topo::LinkId busy_link(const FluidSim& sim, core::Rng& rng) {
  auto active = sim.active_flows();
  for (std::size_t tries = 0; tries < active.size(); ++tries) {
    const FlowState& f = sim.flow(active[rng.uniform_int(active.size())]);
    if (!f.path.empty()) return f.path[f.path.size() / 2];
  }
  return 0;
}

// Replays the churn script for one scenario and marking configuration
// and returns the digests taken at every checkpoint.
std::vector<Digest> run_churn(const Scenario& sc, const Marking& marking, int lanes) {
  topo::Fabric fabric(params_for(sc));
  FluidSimConfig cfg;
  cfg.solver_threads = lanes;
  cfg.ecn_marks_per_flow_sec = marking.ecn_marks_per_flow_sec;
  cfg.pfc_pauses_per_sec = marking.pfc_pauses_per_sec;
  FluidSim sim(fabric, cfg);
  core::Rng rng(sc.seed * 7919);

  // Staggered waves land on links earlier waves still hold (merges);
  // even waves go through inject_batch, odd ones flow by flow.
  for (int w = 0; w < 5; ++w) {
    auto specs = random_wave(fabric, rng, 10 + static_cast<int>(rng.uniform_int(12)),
                             core::usec(15.0 * w), w % 2 == 1,
                             static_cast<std::uint64_t>(100 * w));
    if (w % 2 == 0) {
      sim.inject_batch(specs);
    } else {
      for (const FlowSpec& s : specs) sim.inject(s);
    }
  }
  // Late arrivals, still pending when one of them is aborted.
  auto late = sim.inject_batch(random_wave(fabric, rng, 6, core::msec(5), true, 900));

  std::vector<Digest> digests;
  auto checkpoint = [&] { digests.push_back(digest(sim)); };

  sim.run(core::usec(5));
  checkpoint();
  sim.run(core::usec(20));
  checkpoint();
  sim.run(core::usec(50));
  checkpoint();
  // Abort an active flow from the front third: the last active flow is
  // swapped into its slot, reordering the active set.
  if (!sim.active_flows().empty()) {
    sim.abort_flow(sim.active_flows()[sim.active_flows().size() / 3]);
  }
  checkpoint();
  sim.abort_flow(late[0]);
  checkpoint();
  const topo::LinkId slowed = busy_link(sim, rng);
  sim.degrade_link(slowed, 0.5);
  checkpoint();
  const topo::LinkId blackholed = busy_link(sim, rng);
  sim.degrade_link(blackholed, 0.0);
  checkpoint();
  sim.run(core::usec(120));
  checkpoint();
  sim.reset_stats();
  checkpoint();
  sim.run(core::usec(200));
  checkpoint();
  const topo::LinkId failed = busy_link(sim, rng);
  sim.set_link_up(failed, false);
  checkpoint();
  sim.reroute_flows();
  checkpoint();
  sim.run(core::usec(400));
  checkpoint();
  sim.set_link_up(failed, true);
  checkpoint();
  sim.resolve_rates();
  checkpoint();
  {
    auto active = sim.active_flows();
    std::vector<FlowId> watch(active.begin(),
                              active.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min<std::size_t>(3, active.size())));
    sim.run_watch(watch, 0.5);
  }
  checkpoint();
  sim.degrade_link(blackholed, 1.0);
  checkpoint();
  sim.run(core::msec(2));
  checkpoint();
  sim.run(1.0);
  checkpoint();
  return digests;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Fixture text: two lines per run, its name and kind ("exact" or
// "integrated") then one digest per checkpoint. Parsed back into a map
// keyed by "name kind".
using DigestLines = std::map<std::string, std::vector<std::uint64_t>>;

void add_lines(DigestLines& all, const std::string& name, const std::vector<Digest>& digests) {
  std::vector<std::uint64_t>& exact = all[name + " exact"];
  std::vector<std::uint64_t>& integrated = all[name + " integrated"];
  for (const Digest& d : digests) {
    exact.push_back(d.exact);
    integrated.push_back(d.integrated);
  }
}

std::string to_text(const DigestLines& all) {
  std::ostringstream out;
  out << "# shard maintenance churn: FNV-1a per checkpoint (hex doubles); exact: flow"
         " rate/finish/remaining and link hop latency/ECN/PFC/peak overload; integrated:"
         " link bytes/busy/util\n";
  for (const auto& [key, digests] : all) {
    out << key;
    for (std::uint64_t d : digests) out << ' ' << hex(d);
    out << '\n';
  }
  return out.str();
}

bool from_text(const std::string& text, DigestLines& all) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, kind;
    fields >> name >> kind;
    if (kind != "exact" && kind != "integrated") return false;
    std::vector<std::uint64_t> digests;
    for (std::string tok; fields >> tok;) {
      char* end = nullptr;
      digests.push_back(std::strtoull(tok.c_str(), &end, 16));
      if (end == tok.c_str() || *end != '\0') return false;
    }
    all[name + " " + kind] = std::move(digests);
  }
  return !all.empty();
}

bool regen_requested() {
  const char* env = std::getenv("GOLDEN_REGEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(ShardMaintenance, ChurnMatchesCheckedInDigests) {
  if (regen_requested()) {
    DigestLines all;
    for (const Scenario& sc : kScenarios) {
      for (const Marking& m : kMarkings) add_lines(all, run_name(sc, m), run_churn(sc, m, 1));
    }
    std::ofstream(kFixturePath) << to_text(all);
    GTEST_LOG_(INFO) << "regenerated " << kFixturePath;
  }
  std::ifstream in(kFixturePath);
  std::stringstream buf;
  buf << in.rdbuf();
  DigestLines golden;
  ASSERT_TRUE(from_text(buf.str(), golden))
      << "missing or malformed fixture " << kFixturePath
      << " — regenerate with GOLDEN_REGEN=1 ./net_shard_maintenance_test";
  ASSERT_EQ(golden.size(), 2 * std::size(kScenarios) * std::size(kMarkings));
  for (const Scenario& sc : kScenarios) {
    for (const Marking& m : kMarkings) {
      const std::string name = run_name(sc, m);
      for (int lanes : {1, 4}) {
        DigestLines got;
        add_lines(got, name, run_churn(sc, m, lanes));
        for (const auto& [key, digests] : got) {
          ASSERT_EQ(golden.count(key), 1u) << key;
          const std::vector<std::uint64_t>& want = golden.at(key);
          ASSERT_EQ(digests.size(), want.size()) << key << " at " << lanes << " lanes";
          for (std::size_t i = 0; i < digests.size(); ++i) {
            EXPECT_EQ(hex(digests[i]), hex(want[i]))
                << key << " at " << lanes << " lanes, checkpoint " << i;
          }
        }
      }
    }
  }
}

// Hop latency FluidSim publishes for `shared` when `flows` cross it in
// this active-set order: offered demand is summed in that order from each
// flow's prefix-min capacity up to the link.
Seconds expected_latency(const FluidSim& sim, std::span<const FlowId> flows,
                         topo::LinkId shared) {
  double demand = 0.0;
  for (FlowId id : flows) {
    double prefix = std::numeric_limits<double>::infinity();
    for (topo::LinkId l : sim.flow(id).path) {
      const double cap = sim.effective_capacity(l);
      if (l == shared) {
        demand += prefix == std::numeric_limits<double>::infinity() ? cap : prefix;
        break;
      }
      prefix = std::min(prefix, cap);
    }
  }
  const double overload = demand / sim.effective_capacity(shared);
  const FluidSimConfig cfg;
  return cfg.base_hop_latency +
         (overload > 1.0 ? cfg.max_queue_delay * std::min(1.0, overload - 1.0) : 0.0);
}

// Aborting a flow removes it from the active set in place: the survivors
// keep their order, so only the aborted flow's shard re-solves. Uplink
// degradations are searched until the demand sum on a shared link rounds
// differently in the order A B C than in C A B (the order a swap-removal
// would leave), so a reorder would show bitwise.
TEST(ShardMaintenance, AbortResolvesOnlyTheAbortedFlowsShard) {
  topo::FabricParams p;
  p.rails = 2;
  p.hosts_per_block = 4;
  p.blocks_per_pod = 2;
  p.pods = 1;
  p.dual_tor = false;
  topo::Fabric fabric(p);
  FluidSimConfig cfg;
  cfg.shard_telemetry = true;
  FluidSim sim(fabric, cfg);
  obs::Metrics metrics;
  sim.set_metrics(&metrics);
  auto hosts = fabric.topo().hosts();
  auto spec = [&](std::size_t src, std::size_t dst, int rail, Seconds start) {
    FlowSpec s;
    s.src_host = hosts[src];
    s.dst_host = hosts[dst];
    s.src_rail = rail;
    s.dst_rail = rail;
    s.size = 1 << 30;
    s.start = start;
    return s;
  };
  // X and Y on rail 1 share a shard; A, B and C converge on one host
  // downlink on rail 0. Admission order, and so active order, is
  // X Y A B C.
  const FlowSpec specs[] = {spec(3, 5, 1, 0.0), spec(3, 5, 1, 0.0),
                            spec(0, 4, 0, core::usec(1)), spec(1, 4, 0, core::usec(2)),
                            spec(2, 4, 0, core::usec(3))};
  std::vector<std::vector<topo::LinkId>> paths;
  for (const FlowSpec& s : specs) paths.push_back(*sim.predict_path(s));
  const topo::LinkId shared = paths[2].back();
  ASSERT_EQ(paths[3].back(), shared);
  ASSERT_EQ(paths[4].back(), shared);

  bool found = false;
  for (int k = 1; k < 200 && !found; ++k) {
    const double f[] = {0.3 + 0.0037 * k, 0.25 + 0.0051 * k, 0.2 + 0.0029 * k};
    FluidSim probe(fabric);
    std::vector<FlowId> abc;
    for (int i = 0; i < 3; ++i) {
      probe.degrade_link(paths[2 + i][0], f[i]);
      abc.push_back(probe.inject(specs[2 + i]));
    }
    probe.run(core::usec(4));
    const std::vector<FlowId> cab = {abc[2], abc[0], abc[1]};
    if (expected_latency(probe, abc, shared) == expected_latency(probe, cab, shared)) continue;
    for (int i = 0; i < 3; ++i) sim.degrade_link(paths[2 + i][0], f[i]);
    found = true;
  }
  ASSERT_TRUE(found) << "no uplink factors make the demand sum order-dependent";

  std::vector<FlowId> ids;
  for (const FlowSpec& s : specs) ids.push_back(sim.inject(s));
  sim.run(core::usec(4));
  ASSERT_EQ(sim.solver_shard_count(), 2u);
  const std::vector<FlowId> abc = {ids[2], ids[3], ids[4]};
  const Seconds before = sim.hop_latency(shared);
  EXPECT_EQ(before, expected_latency(sim, abc, shared));
  const double rate_a = sim.current_rate(ids[2]);

  const std::uint64_t solved = metrics.counter("fluidsim.shards.solved");
  sim.abort_flow(ids[0]);
  EXPECT_EQ(metrics.counter("fluidsim.shards.solved"), solved + 1)
      << "only the aborted flow's shard re-solves";
  const std::vector<FlowId> yabc = {ids[1], ids[2], ids[3], ids[4]};
  ASSERT_TRUE(std::equal(yabc.begin(), yabc.end(), sim.active_flows().begin(),
                         sim.active_flows().end()));
  const Seconds got = sim.hop_latency(shared);
  EXPECT_EQ(std::memcmp(&got, &before, sizeof got), 0) << got << " vs " << before;
  const double rate_now = sim.current_rate(ids[2]);
  EXPECT_EQ(std::memcmp(&rate_now, &rate_a, sizeof rate_now), 0);
  EXPECT_GT(sim.current_rate(ids[1]), 0.0);
}

// Connected components of the active paths, by the test's own union-find
// over links.
std::size_t component_count(const FluidSim& sim) {
  const std::size_t nlinks = sim.fabric().topo().link_count();
  std::vector<std::uint32_t> parent(nlinks);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<char> used(nlinks, 0);
  for (FlowId id : sim.active_flows()) {
    const auto& path = sim.flow(id).path;
    for (std::size_t h = 0; h < path.size(); ++h) {
      used[path[h]] = 1;
      if (h > 0) parent[find(path[h])] = find(path[h - 1]);
    }
  }
  std::size_t roots = 0;
  for (std::size_t l = 0; l < nlinks; ++l) {
    if (used[l] && find(static_cast<std::uint32_t>(l)) == l) ++roots;
  }
  return roots;
}

void expect_invariants(FluidSim& sim, int scenario, int step) {
  SCOPED_TRACE(testing::Message() << "scenario " << scenario << " step " << step);
  ASSERT_EQ(sim.solver_shard_count(), component_count(sim));

  const std::size_t nlinks = sim.fabric().topo().link_count();
  std::vector<char> crossed(nlinks, 0);
  for (FlowId id : sim.active_flows()) {
    for (topo::LinkId l : sim.flow(id).path) crossed[l] = 1;
  }
  const Seconds base = FluidSimConfig{}.base_hop_latency;
  for (std::size_t l = 0; l < nlinks; ++l) {
    if (crossed[l]) continue;
    const auto id = static_cast<topo::LinkId>(l);
    ASSERT_EQ(sim.link_rate(id), 0.0) << "link " << l << " has no members";
    ASSERT_EQ(sim.hop_latency(id), base) << "link " << l << " has no members";
  }

  std::vector<double> rates(sim.flow_count());
  for (FlowId id = 0; id < sim.flow_count(); ++id) rates[id] = sim.current_rate(id);
  std::vector<double> latency(nlinks);
  for (std::size_t l = 0; l < nlinks; ++l) {
    latency[l] = sim.hop_latency(static_cast<topo::LinkId>(l));
  }
  sim.resolve_rates();
  for (FlowId id = 0; id < sim.flow_count(); ++id) {
    const double now = sim.current_rate(id);
    ASSERT_EQ(std::memcmp(&now, &rates[id], sizeof(double)), 0)
        << "flow " << id << ": " << rates[id] << " before resolve_rates, " << now << " after";
  }
  for (std::size_t l = 0; l < nlinks; ++l) {
    const double now = sim.hop_latency(static_cast<topo::LinkId>(l));
    ASSERT_EQ(std::memcmp(&now, &latency[l], sizeof(double)), 0)
        << "link " << l << ": " << latency[l] << " before resolve_rates, " << now << " after";
  }
}

// Seeded event sweep: short run steps interleaved with arrival waves,
// aborts, degradations, link failures with reroutes, repairs and
// run_watch, on random small fabrics and lane counts.
TEST(ShardMaintenance, PartitionInvariantsHoldAfterEveryEvent) {
  core::Rng rng(77031);
  const topo::FabricStyle styles[] = {
      topo::FabricStyle::AstralSameRail, topo::FabricStyle::RailOptimized,
      topo::FabricStyle::Clos, topo::FabricStyle::UBMesh};
  int steps = 0;
  std::size_t max_shards = 0;
  for (int sc = 0; sc < 60; ++sc) {
    topo::FabricParams p;
    p.style = styles[rng.uniform_int(4)];
    p.rails = 2 + 2 * static_cast<int>(rng.uniform_int(2));
    p.hosts_per_block = 2 + static_cast<int>(rng.uniform_int(3));
    p.blocks_per_pod = 1 + static_cast<int>(rng.uniform_int(2));
    p.pods = 2;
    p.dual_tor = rng.chance(0.5);
    p.tier3_oversub = rng.chance(0.3) ? 2.0 : 1.0;
    topo::Fabric fabric(p);
    FluidSimConfig cfg;
    cfg.solver_threads = rng.chance(0.5) ? 4 : 1;
    FluidSim sim(fabric, cfg);

    std::vector<FlowId> pending;
    for (int w = 0; w < 6; ++w) {
      auto specs = random_wave(fabric, rng, 1 + static_cast<int>(rng.uniform_int(10)),
                               core::usec(8.0 * w + rng.uniform(0.0, 4.0)), rng.chance(0.4),
                               static_cast<std::uint64_t>(100 * w));
      auto ids = sim.inject_batch(specs);
      if (w == 5) pending = ids;
    }
    std::vector<topo::LinkId> down;
    for (int step = 0; step < 40; ++step) {
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.55) {
        sim.run(sim.now() + core::usec(rng.uniform(0.5, 12.0)));
      } else if (roll < 0.62 && !sim.active_flows().empty()) {
        auto active = sim.active_flows();
        sim.abort_flow(active[rng.uniform_int(active.size())]);
      } else if (roll < 0.66 && !pending.empty()) {
        sim.abort_flow(pending[rng.uniform_int(pending.size())]);
      } else if (roll < 0.76) {
        sim.degrade_link(busy_link(sim, rng), rng.chance(0.3) ? 0.0 : rng.uniform(0.2, 1.0));
      } else if (roll < 0.82) {
        const topo::LinkId l = busy_link(sim, rng);
        sim.set_link_up(l, false);
        down.push_back(l);
        sim.reroute_flows();
      } else if (roll < 0.88 && !down.empty()) {
        sim.set_link_up(down.back(), true);
        down.pop_back();
      } else if (roll < 0.93) {
        auto active = sim.active_flows();
        std::vector<FlowId> watch(
            active.begin(),
            active.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(2, active.size())));
        sim.run_watch(watch, sim.now() + core::usec(60));
      } else {
        sim.inject_batch(random_wave(fabric, rng, 1 + static_cast<int>(rng.uniform_int(6)),
                                     sim.now(), rng.chance(0.5), 5000));
      }
      expect_invariants(sim, sc, step);
      if (::testing::Test::HasFatalFailure()) return;
      max_shards = std::max(max_shards, sim.solver_shard_count());
      ++steps;
    }
  }
  EXPECT_EQ(steps, 60 * 40);
  EXPECT_GT(max_shards, 3u);
}

}  // namespace
}  // namespace astral::net
