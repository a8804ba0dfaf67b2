// Bit-identity contract of the max-min solver (see shard_solver.h): rates
// must be *bitwise* reproducible — not merely close — across every
// thread count and across repeated runs, and they must match a checked-in
// observation of the same script, so a change that moves any published
// value by one ulp fails here rather than drifting silently.
//
// One deterministic scenario script (waves of same-pod and cross-pod
// flows on an oversubscribed AstralSameRail fabric, with mid-run
// degradations, a link flap, and an abort) is replayed into identical
// simulators that differ only in solver lane count; flow rates,
// hop latencies (capturing published per-link overloads) and final byte
// counters are compared exactly.
//
// The fixture holds the observation as hex doubles. Intentional changes
// regenerate it with one command:
//
//   GOLDEN_REGEN=1 ./build/tests/net_sharded_determinism_test
//
// then commit the updated tests/fixtures/solver_script.golden.txt.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/units.h"
#include "net/fluid_sim.h"

namespace astral::net {
namespace {

// Injected by tests/CMakeLists.txt; points at the source-tree fixtures.
#ifndef GOLDEN_FIXTURE_DIR
#error "GOLDEN_FIXTURE_DIR must be defined"
#endif

const char* kFixturePath = GOLDEN_FIXTURE_DIR "/solver_script.golden.txt";

using core::Seconds;

topo::FabricParams fabric_params() {
  topo::FabricParams p;
  p.style = topo::FabricStyle::AstralSameRail;
  p.rails = 4;
  p.hosts_per_block = 4;
  p.blocks_per_pod = 2;
  p.pods = 2;
  p.tier3_oversub = 2.0;  // Cross-pod waves saturate the core tier.
  return p;
}

struct Observation {
  std::vector<std::vector<double>> rates;      ///< Per checkpoint.
  std::vector<std::vector<double>> latencies;  ///< Per checkpoint, per link.
  std::vector<double> bytes_forwarded;         ///< Final, per link.
};

// Replays the fixed script into a fresh simulator and records everything
// the solver publishes.
Observation run_script(const FluidSimConfig& cfg) {
  topo::Fabric fabric(fabric_params());
  FluidSim sim(fabric, cfg);
  auto hosts = fabric.topo().hosts();
  const std::size_t nhosts = hosts.size();
  core::Rng rng(99);

  // Six waves: even waves stay inside a pod, odd waves cross pods.
  std::vector<FlowId> tracked;
  for (int w = 0; w < 6; ++w) {
    std::vector<FlowSpec> specs;
    for (int i = 0; i < 24; ++i) {
      FlowSpec s;
      std::size_t a = rng.uniform_int(nhosts / 2);
      std::size_t b = rng.uniform_int(nhosts / 2);
      if (w % 2 == 1) b += nhosts / 2;  // cross into the other pod
      s.src_host = hosts[a];
      s.dst_host = hosts[b];
      s.src_rail = i % 4;
      s.dst_rail = i % 4;
      s.size = (2 + rng.uniform_int(16)) * (1 << 20);
      s.start = core::usec(25.0 * w);
      s.tag = static_cast<std::uint64_t>(w * 100 + i);
      specs.push_back(s);
    }
    auto ids = sim.inject_batch(specs);
    if (w == 0) tracked = ids;
  }

  const std::size_t nlinks = fabric.topo().link_count();
  Observation obs;
  int step = 0;
  for (Seconds t : {core::usec(40), core::usec(90), core::usec(160),
                    core::usec(400), core::msec(2), core::msec(20)}) {
    sim.run(t);
    ++step;
    if (step == 2) sim.degrade_link(static_cast<topo::LinkId>(3), 0.4);
    if (step == 3) {
      sim.set_link_up(static_cast<topo::LinkId>(11), false);
      sim.reroute_flows();
    }
    if (step == 4) {
      sim.set_link_up(static_cast<topo::LinkId>(11), true);
      if (!tracked.empty()) sim.abort_flow(tracked[0]);
    }
    auto active = sim.active_flows();
    std::vector<double> rates;
    for (FlowId id : active) rates.push_back(sim.current_rate(id));
    obs.rates.push_back(std::move(rates));
    std::vector<double> lat(nlinks);
    for (std::size_t l = 0; l < nlinks; ++l) {
      lat[l] = sim.hop_latency(static_cast<topo::LinkId>(l));
    }
    obs.latencies.push_back(std::move(lat));
  }
  sim.run(1.0);
  obs.bytes_forwarded.resize(nlinks);
  for (std::size_t l = 0; l < nlinks; ++l) {
    obs.bytes_forwarded[l] = sim.link_stats(static_cast<topo::LinkId>(l)).bytes_forwarded;
  }
  return obs;
}

// Bitwise equality: 0.0 vs -0.0 and NaN payloads count as differences.
void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what, int step) {
  ASSERT_EQ(a.size(), b.size()) << what << " step " << step;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << " step " << step << " index " << i << ": " << a[i]
        << " vs " << b[i];
  }
}

void expect_same(const Observation& a, const Observation& b) {
  ASSERT_EQ(a.rates.size(), b.rates.size());
  for (std::size_t s = 0; s < a.rates.size(); ++s) {
    expect_bitwise(a.rates[s], b.rates[s], "rates", static_cast<int>(s));
    if (::testing::Test::HasFatalFailure()) return;
    expect_bitwise(a.latencies[s], b.latencies[s], "hop latencies",
                   static_cast<int>(s));
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_bitwise(a.bytes_forwarded, b.bytes_forwarded, "bytes", -1);
}

// Fixture text: one line per vector, a label then the values as hex
// doubles (printf %a), which round-trip exactly and keep the sign of zero.
void write_line(std::ostream& out, const std::string& label,
                const std::vector<double>& values) {
  out << label;
  char buf[40];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, " %a", v);
    out << buf;
  }
  out << '\n';
}

std::string to_text(const Observation& o) {
  std::ostringstream out;
  out << "# solver script observation: rates, hop latencies, bytes (hex doubles)\n";
  for (std::size_t s = 0; s < o.rates.size(); ++s) {
    write_line(out, "rates." + std::to_string(s), o.rates[s]);
    write_line(out, "latencies." + std::to_string(s), o.latencies[s]);
  }
  write_line(out, "bytes", o.bytes_forwarded);
  return out.str();
}

// Parses to_text's format back; returns false on a malformed document.
bool from_text(const std::string& text, Observation& o) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    std::vector<double> values;
    for (std::string tok; fields >> tok;) {
      char* end = nullptr;
      values.push_back(std::strtod(tok.c_str(), &end));
      if (end == tok.c_str() || *end != '\0') return false;
    }
    if (label.rfind("rates.", 0) == 0) {
      o.rates.push_back(std::move(values));
    } else if (label.rfind("latencies.", 0) == 0) {
      o.latencies.push_back(std::move(values));
    } else if (label == "bytes") {
      o.bytes_forwarded = std::move(values);
    } else {
      return false;
    }
  }
  return o.rates.size() == o.latencies.size() && !o.rates.empty();
}

bool regen_requested() {
  const char* env = std::getenv("GOLDEN_REGEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// The script's observation is pinned to the checked-in fixture at 1 and
// 4 lanes (thread-count invariance below covers 2 and 8).
TEST(ShardedDeterminism, ScriptMatchesCheckedInFixture) {
  if (regen_requested()) {
    std::ofstream(kFixturePath) << to_text(run_script(FluidSimConfig{}));
    GTEST_LOG_(INFO) << "regenerated " << kFixturePath;
  }
  std::ifstream in(kFixturePath);
  std::stringstream buf;
  buf << in.rdbuf();
  Observation golden;
  ASSERT_TRUE(from_text(buf.str(), golden))
      << "missing or malformed fixture " << kFixturePath
      << " — regenerate with GOLDEN_REGEN=1 ./net_sharded_determinism_test";
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " solver lanes");
    FluidSimConfig cfg;
    cfg.solver_threads = threads;
    expect_same(golden, run_script(cfg));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardedDeterminism, ExactShardingIsThreadCountInvariant) {
  const Observation t1 = run_script(FluidSimConfig{});
  for (int threads : {2, 4, 8}) {
    FluidSimConfig cfg;
    cfg.solver_threads = threads;
    const Observation tn = run_script(cfg);
    expect_same(t1, tn);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardedDeterminism, RepeatedRunsAreBitwiseStable) {
  FluidSimConfig cfg;
  cfg.solver_threads = 4;
  const Observation a = run_script(cfg);
  const Observation b = run_script(cfg);
  expect_same(a, b);
}

}  // namespace
}  // namespace astral::net
