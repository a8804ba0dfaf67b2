// Pins flow routing bit for bit. For every zoo instance (the five fabric
// styles with and without dual-ToR wiring, plus an oversubscribed tier 3)
// one FNV-1a digest covers:
//
//  * the path FluidSim::predict_path returns for each spec of a seeded
//    set (same-rail and cross-rail, default and pinned source ports), on
//    the intact fabric;
//  * the same predictions after seeded link-downs;
//  * on a fresh fabric, the flows reroute_flows moved or stranded, and
//    every live path, after a path link is degraded to zero.
//
// The digests are checked in. A change that is meant to move routing
// regenerates them with
//
//   GOLDEN_REGEN=1 ./build/tests/net_router_pin_test
//
// and commits the updated tests/fixtures/router_paths.golden.txt with the
// reason in its commit message.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "net/fluid_sim.h"

namespace astral::net {
namespace {

const std::string kFixturePath =
    std::string(GOLDEN_FIXTURE_DIR) + "/router_paths.golden.txt";

class Digest {
 public:
  void put(std::uint64_t v) {
    char buf[24];
    const int n = std::snprintf(buf, sizeof buf, "%llu;", static_cast<unsigned long long>(v));
    for (int i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(buf[i]);
      h_ *= 1099511628211ull;
    }
  }
  void put_path(const std::optional<std::vector<topo::LinkId>>& path) {
    if (!path) {
      put(~0ull);
      return;
    }
    put(path->size());
    for (topo::LinkId l : *path) put(l);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

struct Instance {
  std::string name;
  topo::FabricParams params;
  std::uint64_t seed;
};

std::vector<Instance> instances() {
  std::vector<Instance> all;
  std::uint64_t seed = 1;
  auto base = [](topo::FabricStyle style, bool dual) {
    topo::FabricParams p;
    p.style = style;
    p.rails = 4;
    p.hosts_per_block = 4;
    p.blocks_per_pod = 2;
    p.pods = 2;
    p.dual_tor = dual;
    return p;
  };
  for (topo::FabricStyle style : topo::kAllFabricStyles) {
    for (bool dual : {true, false}) {
      all.push_back({std::string(topo::to_string(style)) + (dual ? "/dual" : "/single"),
                     base(style, dual), seed++});
    }
  }
  topo::FabricParams oversub = base(topo::FabricStyle::AstralSameRail, true);
  oversub.tier3_oversub = 4.0;
  all.push_back({"astral-same-rail/tier3_oversub4", oversub, seed++});
  return all;
}

// Same-rail and cross-rail specs in alternation; every other pair pins a
// random source port, the rest use the router's default port.
std::vector<FlowSpec> make_specs(const topo::Fabric& f, core::Rng& rng, int n) {
  const auto hosts = f.topo().hosts();
  const int rails = f.params().rails;
  std::vector<FlowSpec> specs;
  for (int i = 0; i < n; ++i) {
    FlowSpec s;
    const std::size_t a = rng.uniform_int(hosts.size());
    std::size_t b = rng.uniform_int(hosts.size() - 1);
    if (b >= a) ++b;
    s.src_host = hosts[a];
    s.dst_host = hosts[b];
    s.src_rail = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(rails)));
    s.dst_rail = i % 2 == 0
                     ? s.src_rail
                     : (s.src_rail + 1 +
                        static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(rails - 1)))) %
                           rails;
    s.src_port = i % 4 < 2 ? 0 : static_cast<std::uint16_t>(1024 + rng.uniform_int(60000));
    s.tag = rng.uniform_int(1ull << 32);
    s.size = 1 << 20;
    specs.push_back(s);
  }
  return specs;
}

struct PinResult {
  std::uint64_t digest = 0;
  std::size_t moved_by_link_downs = 0;  ///< Predictions the link-downs changed.
  std::size_t rerouted = 0;
  std::size_t stranded = 0;
};

PinResult pin_instance(const Instance& inst) {
  PinResult res;
  Digest d;
  core::Rng rng(inst.seed);
  std::vector<FlowSpec> specs;
  {
    topo::Fabric fabric(inst.params);
    FluidSim sim(fabric);
    specs = make_specs(fabric, rng, 256);
    std::vector<std::optional<std::vector<topo::LinkId>>> before;
    for (const FlowSpec& s : specs) {
      before.push_back(sim.predict_path(s));
      d.put_path(before.back());
    }
    // Seeded link-downs: the first hop of one routable prediction, the
    // last hop of another (a ToR->host downlink), and random links.
    std::vector<topo::LinkId> downs;
    for (const auto& p : before) {
      if (p && downs.size() < 2) downs.push_back(downs.empty() ? p->front() : p->back());
    }
    for (int k = 0; k < 6; ++k) {
      downs.push_back(static_cast<topo::LinkId>(rng.uniform_int(fabric.topo().link_count())));
    }
    for (topo::LinkId l : downs) {
      d.put(l);
      sim.set_link_up(l, false);
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto after = sim.predict_path(specs[i]);
      d.put_path(after);
      if (after != before[i]) ++res.moved_by_link_downs;
    }
  }
  {
    // In-flight failover around a blackholed (zero-capacity) link.
    topo::Fabric fabric(inst.params);
    FluidSim sim(fabric);
    std::vector<FlowId> ids;
    for (std::size_t i = 0; i < specs.size() && ids.size() < 64; ++i) {
      if (sim.predict_path(specs[i])) ids.push_back(sim.inject(specs[i]));
    }
    sim.run(1e-6);
    if (!ids.empty()) {
      const auto& path = sim.flow(ids.front()).path;
      const topo::LinkId dead = path[path.size() / 2];
      d.put(dead);
      sim.degrade_link(dead, 0.0);
      const FluidSim::RerouteReport rep = sim.reroute_flows();
      res.rerouted = rep.rerouted.size();
      res.stranded = rep.stranded.size();
      d.put(rep.rerouted.size());
      for (FlowId id : rep.rerouted) d.put(id);
      d.put(rep.stranded.size());
      for (FlowId id : rep.stranded) d.put(id);
      for (FlowId id : ids) d.put_path(sim.flow(id).path);
    }
  }
  res.digest = d.value();
  return res;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string to_text(const std::map<std::string, std::uint64_t>& all) {
  std::ostringstream out;
  out << "# router: FNV-1a per zoo instance of predict_path over 256 seeded specs,"
         " again after seeded link-downs, and reroute_flows around a zeroed link\n";
  for (const auto& [name, digest] : all) out << name << ' ' << hex(digest) << '\n';
  return out.str();
}

bool from_text(const std::string& text, std::map<std::string, std::uint64_t>& all) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, tok;
    if (!(fields >> name >> tok)) return false;
    char* end = nullptr;
    all[name] = std::strtoull(tok.c_str(), &end, 16);
    if (end == tok.c_str() || *end != '\0') return false;
  }
  return !all.empty();
}

bool regen_requested() {
  const char* env = std::getenv("GOLDEN_REGEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(RouterPin, PathsMatchCheckedInDigests) {
  std::map<std::string, std::uint64_t> got;
  for (const Instance& inst : instances()) got[inst.name] = pin_instance(inst).digest;
  if (regen_requested()) {
    std::ofstream(kFixturePath) << to_text(got);
    GTEST_LOG_(INFO) << "regenerated " << kFixturePath;
  }
  std::ifstream in(kFixturePath);
  std::stringstream buf;
  buf << in.rdbuf();
  std::map<std::string, std::uint64_t> golden;
  ASSERT_TRUE(from_text(buf.str(), golden))
      << "missing or malformed fixture " << kFixturePath
      << " — regenerate with GOLDEN_REGEN=1 ./net_router_pin_test";
  ASSERT_EQ(golden.size(), got.size());
  for (const auto& [name, digest] : got) {
    ASSERT_EQ(golden.count(name), 1u) << name;
    EXPECT_EQ(hex(digest), hex(golden.at(name))) << name;
  }
}

// A pin over paths that never change under failure proves little: the
// link-downs must move predictions and the reroute must act on flows.
// (Single-ToR rail-only has no alternate hop: its flows strand.)
TEST(RouterPin, FailuresMovePaths) {
  std::size_t rerouted = 0;
  for (const Instance& inst : instances()) {
    const PinResult r = pin_instance(inst);
    EXPECT_GT(r.moved_by_link_downs, 0u) << inst.name;
    EXPECT_GT(r.rerouted + r.stranded, 0u) << inst.name;
    rerouted += r.rerouted;
  }
  EXPECT_GT(rerouted, 0u);
}

// The next-hop tables fill lazily and must follow every link-state
// change. Through a seeded sequence of link downs and ups, and a path link
// degraded to zero followed by reroute_flows (which masks blackholed links
// down and back up), every prediction, next_hops and shortest_paths equal
// what a freshly built fabric in the same link state gives, and every
// flow reroute_flows moved takes the path the fresh fabric predicts with
// the blackholed link down. Once every link is restored, every prediction
// equals the intact one. Each step predicts every spec first, so the
// tables a change must drop are warm.
TEST(RouterPin, RouteTablesFollowLinkState) {
  for (const Instance& inst : instances()) {
    SCOPED_TRACE(inst.name);
    core::Rng rng(inst.seed + 1000);
    topo::Fabric fabric(inst.params);
    const topo::Topology& topo = fabric.topo();
    FluidSim sim(fabric);
    const std::vector<FlowSpec> specs = make_specs(fabric, rng, 96);
    std::vector<std::optional<std::vector<topo::LinkId>>> intact;
    for (const FlowSpec& s : specs) intact.push_back(sim.predict_path(s));

    // A fresh fabric with the links that are down on `fabric` (plus
    // `extra_down`) down.
    auto fresh_fabric = [&](topo::LinkId extra_down) {
      topo::Fabric fresh(inst.params);
      for (std::size_t l = 0; l < topo.link_count(); ++l) {
        const auto id = static_cast<topo::LinkId>(l);
        if (!topo.link(id).up || id == extra_down) fresh.topo().set_link_state(id, false);
      }
      return fresh;
    };
    auto expect_fresh = [&](const std::string& step) {
      SCOPED_TRACE(step);
      topo::Fabric fresh = fresh_fabric(topo::kInvalidLink);
      FluidSim fresh_sim(fresh);
      for (const FlowSpec& s : specs) {
        ASSERT_EQ(sim.predict_path(s), fresh_sim.predict_path(s));
        ASSERT_EQ(topo.shortest_paths(s.src_host, s.dst_host, 16),
                  fresh.topo().shortest_paths(s.src_host, s.dst_host, 16));
        const auto from = static_cast<topo::NodeId>(rng.uniform_int(topo.node_count()));
        ASSERT_EQ(topo.next_hops(from, s.dst_host), fresh.topo().next_hops(from, s.dst_host));
      }
    };
    expect_fresh("intact");

    // Downs: a middle hop of a routable prediction, then a random link,
    // in alternation; then half of them come back up in random order.
    std::vector<topo::LinkId> downs;
    for (int k = 0; k < 6; ++k) {
      topo::LinkId l = static_cast<topo::LinkId>(rng.uniform_int(topo.link_count()));
      if (k % 2 == 0) {
        const auto p = sim.predict_path(specs[rng.uniform_int(specs.size())]);
        if (p) l = (*p)[p->size() / 2];
      }
      if (!topo.link(l).up) continue;
      downs.push_back(l);
      sim.set_link_up(l, false);
      expect_fresh("down " + std::to_string(l));
    }
    for (std::size_t k = 0; k < downs.size() / 2; ++k) {
      std::swap(downs[k], downs[k + rng.uniform_int(downs.size() - k)]);
      sim.set_link_up(downs[k], true);
      expect_fresh("up " + std::to_string(downs[k]));
    }

    // Live flows, a path link degraded to zero, then reroute_flows.
    std::vector<FlowId> ids;
    for (const FlowSpec& s : specs) {
      if (ids.size() < 48 && sim.predict_path(s)) ids.push_back(sim.inject(s));
    }
    sim.run(1e-6);
    ASSERT_FALSE(ids.empty());
    const auto& hot = sim.flow(ids[rng.uniform_int(ids.size())]).path;
    const topo::LinkId dead = hot[hot.size() / 2];
    sim.degrade_link(dead, 0.0);
    expect_fresh("degrade " + std::to_string(dead));
    const FluidSim::RerouteReport rep = sim.reroute_flows();
    {
      topo::Fabric masked = fresh_fabric(dead);
      FluidSim masked_sim(masked);
      for (FlowId id : rep.rerouted) {
        EXPECT_EQ(std::optional(sim.flow(id).path), masked_sim.predict_path(sim.flow(id).spec));
      }
      for (FlowId id : rep.stranded) EXPECT_FALSE(masked_sim.predict_path(sim.flow(id).spec));
    }
    expect_fresh("reroute around " + std::to_string(dead));

    // Every link restored: the intact predictions.
    sim.degrade_link(dead, 1.0);
    for (topo::LinkId l : downs) sim.set_link_up(l, true);
    expect_fresh("restored");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(sim.predict_path(specs[i]), intact[i]) << i;
    }
  }
}

}  // namespace
}  // namespace astral::net
