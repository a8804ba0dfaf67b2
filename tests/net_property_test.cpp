// Property sweeps over the fluid simulator: conservation, feasibility and
// max-min optimality of the computed rates across fabric styles and load
// patterns.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/rng.h"
#include "net/fluid_sim.h"

namespace astral::net {
namespace {

using Params = std::tuple<topo::FabricStyle, int /*flows*/, std::uint64_t /*seed*/>;

class FluidProperty : public ::testing::TestWithParam<Params> {
 protected:
  topo::Fabric make_fabric() const {
    topo::FabricParams p;
    p.style = std::get<0>(GetParam());
    p.rails = 4;
    p.hosts_per_block = 4;
    p.blocks_per_pod = 2;
    p.pods = 2;
    return topo::Fabric(p);
  }

  std::vector<FlowSpec> make_specs(const topo::Fabric& f) const {
    auto [style, nflows, seed] = GetParam();
    (void)style;
    core::Rng rng(seed);
    std::vector<FlowSpec> specs;
    auto hosts = f.topo().hosts();
    // Rail-only fabrics have no inter-pod connectivity: stay in pod 0.
    std::size_t usable = style == topo::FabricStyle::RailOnly
                             ? hosts.size() / static_cast<std::size_t>(f.params().pods)
                             : hosts.size();
    for (int i = 0; i < nflows; ++i) {
      FlowSpec s;
      std::size_t a = rng.uniform_int(usable);
      std::size_t b = rng.uniform_int(usable - 1);
      if (b >= a) ++b;
      s.src_host = hosts[a];
      s.dst_host = hosts[b];
      int rail = static_cast<int>(rng.uniform_int(4));
      s.src_rail = rail;
      s.dst_rail = rail;  // same-rail keeps rail-only routable
      s.size = (1 + rng.uniform_int(16)) * (1 << 20);
      s.tag = static_cast<std::uint64_t>(i);
      specs.push_back(s);
    }
    return specs;
  }
};

TEST_P(FluidProperty, AllAdmittedFlowsComplete) {
  auto f = make_fabric();
  FluidSim sim(f);
  auto specs = make_specs(f);
  std::vector<FlowId> ids;
  for (const auto& s : specs) ids.push_back(sim.inject(s));
  sim.run();
  for (FlowId id : ids) {
    const auto& st = sim.flow(id);
    ASSERT_TRUE(st.admitted);
    EXPECT_GE(st.finish, 0.0);
    EXPECT_NEAR(sim.remaining(id), 0.0, 1.0);
  }
  EXPECT_TRUE(sim.idle());
}

// A drained simulator holds no bytes: zero backlog, and every flow has
// either finished or been aborted — here with a third of them aborted
// mid-run.
TEST_P(FluidProperty, DrainedSimHasNoBacklog) {
  auto f = make_fabric();
  FluidSim sim(f);
  auto specs = make_specs(f);
  std::vector<FlowId> ids;
  for (const auto& s : specs) ids.push_back(sim.inject(s));
  sim.run(1e-4);
  for (std::size_t i = 0; i < ids.size(); i += 3) sim.abort_flow(ids[i]);
  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.backlog(), 0u);
  EXPECT_TRUE(sim.active_flows().empty());
  for (FlowId id : ids) {
    const auto& st = sim.flow(id);
    ASSERT_TRUE(st.admitted);
    EXPECT_TRUE(st.finish >= 0.0 || st.aborted) << id;
    if (st.finish >= 0.0) {
      EXPECT_EQ(sim.remaining(id), 0.0) << id;
    }
  }
}

TEST_P(FluidProperty, ByteConservationPerLink) {
  auto f = make_fabric();
  FluidSim sim(f);
  auto specs = make_specs(f);
  std::vector<FlowId> ids;
  for (const auto& s : specs) ids.push_back(sim.inject(s));
  sim.run();
  // Expected per-link bytes = sum of sizes of flows whose path uses it.
  std::map<topo::LinkId, double> expected;
  for (FlowId id : ids) {
    const auto& st = sim.flow(id);
    for (topo::LinkId l : st.path) expected[l] += static_cast<double>(st.spec.size);
  }
  for (const auto& [l, bytes] : expected) {
    EXPECT_NEAR(sim.link_stats(l).bytes_forwarded, bytes, bytes * 1e-6 + 1.0);
  }
}

TEST_P(FluidProperty, RatesNeverExceedCapacity) {
  auto f = make_fabric();
  FluidSim sim(f);
  auto specs = make_specs(f);
  std::vector<FlowId> ids;
  for (const auto& s : specs) ids.push_back(sim.inject(s));
  // Step through the transfer, checking feasibility at several instants.
  for (int step = 0; step < 5 && !sim.idle(); ++step) {
    sim.run(sim.now() + core::usec(150));
    std::map<topo::LinkId, double> load;
    for (FlowId id : ids) {
      const double rate = sim.current_rate(id);
      if (rate <= 0) continue;
      for (topo::LinkId l : sim.flow(id).path) load[l] += rate;
    }
    for (const auto& [l, rate] : load) {
      EXPECT_LE(rate, f.topo().link(l).capacity * (1.0 + 1e-9));
    }
  }
  sim.run();
}

TEST_P(FluidProperty, EveryActiveFlowHasASaturatedBottleneck) {
  // Max-min optimality witness: a flow's rate can only be limited by a
  // saturated link on its own path.
  auto f = make_fabric();
  FluidSim sim(f);
  auto specs = make_specs(f);
  std::vector<FlowId> ids;
  for (const auto& s : specs) ids.push_back(sim.inject(s));
  sim.run(core::usec(100));  // mid-transfer snapshot
  std::map<topo::LinkId, double> load;
  for (FlowId id : ids) {
    const double rate = sim.current_rate(id);
    if (rate <= 0) continue;
    for (topo::LinkId l : sim.flow(id).path) load[l] += rate;
  }
  for (FlowId id : ids) {
    const auto& st = sim.flow(id);
    const double rate = sim.current_rate(id);
    if (rate <= 0 || st.finish >= 0) continue;
    bool has_bottleneck = false;
    for (topo::LinkId l : st.path) {
      if (load[l] >= f.topo().link(l).capacity * (1.0 - 1e-6)) has_bottleneck = true;
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << id << " rate " << rate;
  }
  sim.run();
}

TEST_P(FluidProperty, DeterministicReplay) {
  auto run_once = [&] {
    auto f = make_fabric();
    FluidSim sim(f);
    for (const auto& s : make_specs(f)) sim.inject(s);
    sim.run();
    return sim.now();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  auto [style, flows, seed] = info.param;
  std::string name = to_string(style);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_f" + std::to_string(flows) + "_s" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FluidProperty,
    ::testing::Combine(::testing::Values(topo::FabricStyle::AstralSameRail,
                                         topo::FabricStyle::RailOptimized,
                                         topo::FabricStyle::Clos,
                                         topo::FabricStyle::RailOnly,
                                         topo::FabricStyle::UBMesh),
                       ::testing::Values(8, 32, 96),
                       ::testing::Values(1ull, 42ull)),
    param_name);

}  // namespace
}  // namespace astral::net
