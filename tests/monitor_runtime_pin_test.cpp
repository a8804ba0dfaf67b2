// Pins the job runtimes bit for bit. Every scenario below runs a
// ClusterRuntime job (or one small FleetRuntime campaign) and folds its
// whole observable output into one FNV-1a digest:
//
//  * the RunOutcome ledger and every MitigationRecord, doubles as hex;
//  * every TelemetryStore stream in ingestion order (NCCL timeline, QP
//    rates, errCQEs, INT probes, link counters, syslog), plus the sFlow
//    paths and QP metadata in QP order;
//  * for the fleet campaign, FleetOutcome::to_json().dump() and each
//    tenant's last-segment telemetry.
//
// The digests are checked in. A change that is meant to move simulated
// output regenerates them with
//
//   GOLDEN_REGEN=1 ./build/tests/monitor_runtime_pin_test
//
// and commits the updated tests/fixtures/runtime_script.golden.txt with
// the reason in its commit message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "monitor/cluster_runtime.h"
#include "monitor/fleet_runtime.h"

namespace astral::monitor {
namespace {

const std::string kFixturePath =
    std::string(GOLDEN_FIXTURE_DIR) + "/runtime_script.golden.txt";

class Digest {
 public:
  void put(double v) { put_fmt("%a;", v); }
  void put(std::int64_t v) { put_fmt("%lld;", static_cast<long long>(v)); }
  void put(std::uint64_t v) { put_fmt("%llu;", static_cast<unsigned long long>(v)); }
  void put(int v) { put(static_cast<std::int64_t>(v)); }
  void put(bool v) { put(static_cast<std::int64_t>(v)); }
  void put(const std::string& s) {
    mix(s.data(), s.size());
    mix(";", 1);
  }
  std::uint64_t value() const { return h_; }

 private:
  template <typename T>
  void put_fmt(const char* fmt, T v) {
    char buf[48];
    const int n = std::snprintf(buf, sizeof buf, fmt, v);
    mix(buf, static_cast<std::size_t>(n));
  }
  void mix(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(data[i]);
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

void put_links(Digest& d, const std::vector<topo::LinkId>& links) {
  d.put(static_cast<std::uint64_t>(links.size()));
  for (topo::LinkId l : links) d.put(static_cast<std::int64_t>(l));
}

void put_tuple(Digest& d, const net::FiveTuple& t) {
  d.put(static_cast<std::uint64_t>(t.src_ip));
  d.put(static_cast<std::uint64_t>(t.dst_ip));
  d.put(static_cast<std::uint64_t>(t.src_port));
  d.put(static_cast<std::uint64_t>(t.dst_port));
  d.put(static_cast<std::uint64_t>(t.proto));
}

void put_outcome(Digest& d, const RunOutcome& o) {
  d.put(o.completed);
  d.put(o.stopped_at_iteration);
  d.put(o.observed ? static_cast<int>(*o.observed) : -1);
  d.put(static_cast<std::uint64_t>(o.mitigations.size()));
  for (const MitigationRecord& m : o.mitigations) {
    d.put(m.fault_index);
    d.put(m.at_iteration);
    d.put(static_cast<int>(m.observed));
    d.put(static_cast<int>(m.action));
    d.put(m.succeeded);
    d.put(m.detect_time);
    d.put(m.locate_time);
    d.put(m.recover_time);
  }
  d.put(o.restarts);
  d.put(o.retries);
  d.put(o.reroutes);
  d.put(o.derates);
  d.put(o.gray_isolates);
  d.put(o.oscillations);
  d.put(o.committed_iterations);
  d.put(o.useful_time);
  d.put(o.wasted_time);
  d.put(o.downtime);
  d.put(o.makespan);
  d.put(o.goodput);
}

void put_store(Digest& d, const TelemetryStore& s) {
  d.put(std::string("nccl"));
  for (const NcclTimelineEvent& e : s.nccl_timeline()) {
    d.put(e.t);
    d.put(e.host_rank);
    d.put(e.iteration);
    d.put(e.compute_time);
    d.put(e.comm_time);
    d.put(e.wr_started);
    d.put(e.wr_finished);
  }
  d.put(std::string("qp_rates"));
  for (const QpRateSample& e : s.qp_rates()) {
    d.put(e.t);
    d.put(e.qp);
    d.put(e.rate_bps);
  }
  d.put(std::string("err_cqes"));
  for (const ErrCqeEvent& e : s.err_cqes()) {
    d.put(e.t);
    d.put(e.qp);
    d.put(e.host_rank);
    d.put(e.error);
  }
  d.put(std::string("int_probes"));
  for (const IntProbeResult& e : s.int_probes()) {
    d.put(e.t);
    put_links(d, e.path);
    for (double lat : e.hop_latency) d.put(lat);
  }
  d.put(std::string("link_counters"));
  for (const LinkCounterSample& e : s.link_counters()) {
    d.put(e.t);
    d.put(static_cast<std::int64_t>(e.link));
    d.put(e.ecn_marks);
    d.put(e.pfc_pauses);
    d.put(e.mod_drops);
    d.put(e.utilization);
    d.put(e.cumulative);
  }
  d.put(std::string("syslog"));
  for (const SyslogEvent& e : s.syslog()) {
    d.put(e.t);
    d.put(static_cast<std::int64_t>(e.node));
    d.put(e.host_rank);
    d.put(e.severity);
    d.put(e.message);
  }
  // The keyed streams live in hash maps; digest them in QP order.
  std::vector<QpId> qps;
  for (const auto& [qp, meta] : s.qp_metas()) qps.push_back(qp);
  std::sort(qps.begin(), qps.end());
  d.put(std::string("qp_meta"));
  for (QpId qp : qps) {
    const QpMeta& m = s.qp_metas().at(qp);
    d.put(m.qp);
    d.put(m.src_host_rank);
    d.put(m.dst_host_rank);
    d.put(static_cast<std::int64_t>(m.src_host));
    d.put(static_cast<std::int64_t>(m.dst_host));
    put_tuple(d, m.tuple);
  }
  qps.clear();
  for (const auto& [qp, rec] : s.sflow_paths()) qps.push_back(qp);
  std::sort(qps.begin(), qps.end());
  d.put(std::string("sflow"));
  for (QpId qp : qps) {
    const SflowPathRecord& r = s.sflow_paths().at(qp);
    d.put(r.t);
    d.put(r.qp);
    put_tuple(d, r.tuple);
    put_links(d, r.path);
  }
}

topo::FabricParams fabric_params() {
  topo::FabricParams p;
  p.rails = 2;
  p.hosts_per_block = 8;
  p.blocks_per_pod = 2;
  p.pods = 1;
  return p;
}

JobConfig job_config(bool recovery) {
  JobConfig job;
  job.hosts = 12;
  job.iterations = 8;
  job.comm_bytes = 8ull * 1024 * 1024;
  job.recovery.enabled = recovery;
  return job;
}

struct Scenario {
  const char* name;
  std::function<void(JobConfig&)> configure;
  /// Builds the schedule on the runtime under test (make_* draws from
  /// the job rng exactly as a campaign would).
  std::function<void(ClusterRuntime&, FaultSchedule&)> faults;
  std::uint64_t seed;
  bool recovery = true;
};

// Comm-dominated, so a degraded link slows the iteration past the
// mitigation arm threshold.
void gray(JobConfig& job, GrayRoutingConfig::Mode mode) {
  job.compute_time = 0.001;
  job.comm_bytes = 32ull * 1024 * 1024;
  job.gray.mode = mode;
  job.gray.escalate_after_ticks = 2;
}

void flapping_and_slow_nic(ClusterRuntime& rt, FaultSchedule& s) {
  s.add(rt.make_gray_fault(GrayKind::FlappingLink, 1, 1));
  s.add(rt.make_gray_fault(GrayKind::SlowNic, 2));
}

void fault(ClusterRuntime& rt, FaultSchedule& s, RootCause c, Manifestation m,
           int at) {
  s.add(rt.make_fault(c, m, at));
}

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      {"healthy_recovery_off", {}, {}, 1, false},
      {"healthy_recovery_on", {}, {}, 1},
      {"gpu_failstop", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::GpuHardware, Manifestation::FailStop, 3);
       },
       3},
      {"gpu_failstop_recovery_off", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::GpuHardware, Manifestation::FailStop, 3);
       },
       3, false},
      {"ccl_failhang", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::CclBug, Manifestation::FailHang, 2);
       },
       8},
      {"switch_blackhole", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::SwitchBug, Manifestation::FailHang, 2);
       },
       6},
      {"switch_blackhole_recovery_off", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::SwitchBug, Manifestation::FailHang, 2);
       },
       6, false},
      {"optical_failslow", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::OpticalFiber, Manifestation::FailSlow, 2);
       },
       5},
      {"linkflap_retry", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::LinkFlap, Manifestation::FailStop, 4);
       },
       12},
      {"pcie_degrade", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::PcieDegrade, Manifestation::FailSlow, 1);
       },
       9},
      {"tor_death_mid_transfer", {},
       [](auto& rt, auto& s) { s.add(rt.make_mid_transfer_tor_death(3, 0.5)); },
       13},
      {"gray_off", [](JobConfig& j) { gray(j, GrayRoutingConfig::Mode::Off); },
       flapping_and_slow_nic, 17},
      {"gray_binary_isolate",
       [](JobConfig& j) { gray(j, GrayRoutingConfig::Mode::BinaryIsolate); },
       flapping_and_slow_nic, 17},
      {"gray_wcmp", [](JobConfig& j) { gray(j, GrayRoutingConfig::Mode::Wcmp); },
       flapping_and_slow_nic, 17},
      // Two concurrent crisp network faults: a blackhole on the ring and
      // a fail-slow fiber on a rail-1 uplink that no ring flow crosses.
      // The second link carries no traffic, so its only counter samples
      // are the MOD drops of the hung wave.
      {"mod_drops_off_path", {},
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::SwitchBug, Manifestation::FailHang, 2);
         FaultSpec idle = rt.make_fault(RootCause::OpticalFiber, Manifestation::FailSlow, 2);
         idle.target_link = rt.sim().fabric().topo().host_uplink(rt.job_hosts()[0], 1, 0);
         s.add(idle);
       },
       6},
      {"backoff_jitter_0",
       [](JobConfig& j) { j.recovery.backoff_jitter = 0.0; },
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::LinkFlap, Manifestation::FailStop, 2);
       },
       11},
      {"backoff_jitter_25",
       [](JobConfig& j) { j.recovery.backoff_jitter = 0.25; },
       [](auto& rt, auto& s) {
         fault(rt, s, RootCause::LinkFlap, Manifestation::FailStop, 2);
       },
       11},
  };
  return all;
}

// Runs one scenario; `digest` receives its ledger and telemetry digest.
RunOutcome run_scenario(const Scenario& sc, std::uint64_t& digest) {
  topo::Fabric fabric(fabric_params());
  JobConfig job = job_config(sc.recovery);
  if (sc.configure) sc.configure(job);
  ClusterRuntime rt(fabric, job, sc.seed);
  FaultSchedule schedule;
  if (sc.faults) sc.faults(rt, schedule);
  rt.inject(schedule);
  const RunOutcome out = rt.run();
  Digest d;
  put_outcome(d, out);
  put_store(d, rt.telemetry());
  digest = d.value();
  return out;
}

// A small mixed fleet on one shared FluidSim: seeded Poisson arrivals of
// mixed sizes and priorities, a link failure that heals, and a host
// failure.
std::uint64_t run_fleet_campaign() {
  topo::Fabric fabric(fabric_params());
  FleetConfig fc;
  ArrivalProcessConfig ap;
  ap.jobs = 6;
  ap.arrival_rate = 2.0;
  ap.sizes = {4, 8};
  ap.size_weights = {0.6, 0.4};
  ap.iterations = 6;
  ap.recovery.enabled = true;
  ap.seed = 11;
  FleetRuntime fleet(fabric, fc);
  std::vector<int> ids;
  for (const FleetJobSpec& spec : generate_arrivals(ap)) ids.push_back(fleet.submit(spec));

  FleetFault link;
  link.at_time = 0.4;
  link.cause = RootCause::OpticalFiber;
  link.manifestation = Manifestation::FailStop;
  link.target_link = fabric.topo().out_links(fabric.topo().hosts()[0])[0];
  link.heal_after = 5.0;
  fleet.inject(link);
  FleetFault host;
  host.at_time = 0.9;
  host.cause = RootCause::GpuHardware;
  host.manifestation = Manifestation::FailStop;
  host.target_host = 5;
  fleet.inject(host);

  const FleetOutcome out = fleet.run();
  Digest d;
  d.put(out.to_json().dump());
  for (int id : ids) {
    if (const TelemetryStore* store = fleet.job_telemetry(id)) put_store(d, *store);
  }
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::map<std::string, std::uint64_t> run_all() {
  std::map<std::string, std::uint64_t> all;
  for (const Scenario& sc : scenarios()) run_scenario(sc, all[sc.name]);
  all["fleet_campaign"] = run_fleet_campaign();
  return all;
}

std::string to_text(const std::map<std::string, std::uint64_t>& all) {
  std::ostringstream out;
  out << "# job runtimes: FNV-1a per scenario of the RunOutcome ledger (hex doubles)"
         " and every TelemetryStore stream; fleet_campaign digests FleetOutcome JSON\n";
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

TEST(RuntimePin, ScenariosMatchCheckedInDigests) {
  const std::map<std::string, std::uint64_t> got = run_all();
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
      << " — regenerate with GOLDEN_REGEN=1 ./monitor_runtime_pin_test";
  ASSERT_EQ(golden.size(), got.size());
  for (const auto& [name, digest] : got) {
    ASSERT_EQ(golden.count(name), 1u) << name;
    EXPECT_EQ(hex(digest), hex(golden.at(name))) << name;
  }
}

// The scenarios must actually exercise what they are named after, or a
// pin over them proves little.
TEST(RuntimePin, ScenariosReachTheirMitigations) {
  auto outcome = [](const std::string& name) {
    std::uint64_t digest = 0;
    for (const Scenario& sc : scenarios()) {
      if (sc.name == name) return run_scenario(sc, digest);
    }
    ADD_FAILURE() << "no scenario " << name;
    return RunOutcome{};
  };
  auto took = [](const RunOutcome& o, MitigationAction a) {
    return std::any_of(o.mitigations.begin(), o.mitigations.end(),
                       [&](const MitigationRecord& m) { return m.action == a; });
  };
  EXPECT_TRUE(outcome("healthy_recovery_on").completed);
  EXPECT_TRUE(took(outcome("gpu_failstop"), MitigationAction::IsolateRestart));
  EXPECT_FALSE(outcome("gpu_failstop_recovery_off").completed);
  EXPECT_TRUE(took(outcome("linkflap_retry"), MitigationAction::RetryBackoff));
  EXPECT_TRUE(took(outcome("switch_blackhole"), MitigationAction::Reroute));
  EXPECT_GT(outcome("tor_death_mid_transfer").reroutes, 0);
  {
    // The off-path fault's link reports MOD drops and nothing else.
    const Scenario* sc = nullptr;
    for (const Scenario& s : scenarios()) {
      if (std::string(s.name) == "mod_drops_off_path") sc = &s;
    }
    ASSERT_NE(sc, nullptr);
    topo::Fabric fabric(fabric_params());
    ClusterRuntime rt(fabric, job_config(sc->recovery), sc->seed);
    FaultSchedule schedule;
    sc->faults(rt, schedule);
    rt.inject(schedule);
    rt.run();
    const topo::LinkId idle = schedule.faults[1].target_link;
    int samples = 0;
    for (const LinkCounterSample& e : rt.telemetry().link_counters()) {
      if (e.link != idle) continue;
      ++samples;
      EXPECT_EQ(e.ecn_marks, 0u);
      EXPECT_EQ(e.pfc_pauses, 0u);
      EXPECT_GT(e.mod_drops, 0u);
    }
    EXPECT_GT(samples, 0);
  }
  EXPECT_GT(outcome("gray_binary_isolate").gray_isolates, 0);
  const RunOutcome wcmp = outcome("gray_wcmp");
  EXPECT_GT(wcmp.derates, 0);
  EXPECT_TRUE(took(wcmp, MitigationAction::IsolateRestart));
}

}  // namespace
}  // namespace astral::monitor
