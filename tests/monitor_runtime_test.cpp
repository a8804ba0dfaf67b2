#include "monitor/cluster_runtime.h"

#include <gtest/gtest.h>

namespace astral::monitor {
namespace {

topo::Fabric test_fabric() {
  topo::FabricParams p;
  p.rails = 2;
  p.hosts_per_block = 8;
  p.blocks_per_pod = 2;
  p.pods = 1;
  return topo::Fabric(p);
}

JobConfig small_job() {
  JobConfig j;
  j.hosts = 8;
  j.iterations = 5;
  j.comm_bytes = 8ull * 1024 * 1024;
  return j;
}

TEST(ClusterRuntime, HealthyRunCompletesWithFullTelemetry) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 1);
  auto outcome = rt.run();
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.observed.has_value());
  const auto& store = rt.telemetry();
  EXPECT_EQ(store.last_iteration(), 4);
  EXPECT_EQ(store.iteration_events(0).size(), 8u);
  EXPECT_FALSE(store.qp_rates().empty());
  EXPECT_FALSE(store.int_probes().empty());
  EXPECT_TRUE(store.err_cqes().empty());
  // All ring QPs registered with 5-tuples and sFlow paths.
  for (QpId qp = 0; qp < 8; ++qp) {
    EXPECT_TRUE(store.qp_meta(qp).has_value());
    EXPECT_FALSE(store.path_of(qp).empty());
  }
}

TEST(ClusterRuntime, HealthyCommTimesNearExpected) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 2);
  rt.run();
  for (const auto& ev : rt.telemetry().nccl_timeline()) {
    ASSERT_GE(ev.comm_time, 0.0);
    EXPECT_LT(ev.comm_time, rt.expected_comm() * 2.5);
    EXPECT_EQ(ev.wr_finished, 1);
  }
}

TEST(ClusterRuntime, GpuHardwareFailStopAbortsWithFatalLog) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 3);
  FaultSpec fault = rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 2);
  rt.inject(fault);
  auto outcome = rt.run();
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.stopped_at_iteration, 2);
  EXPECT_EQ(outcome.observed, Manifestation::FailStop);
  auto logs = rt.telemetry().host_syslog(fault.target_host_rank);
  ASSERT_FALSE(logs.empty());
  EXPECT_EQ(logs[0].severity, "fatal");
  EXPECT_NE(logs[0].message.find("Xid"), std::string::npos);
}

TEST(ClusterRuntime, FailOnStartStopsAtIterationZero) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 4);
  rt.inject(rt.make_fault(RootCause::HostEnvConfig, Manifestation::FailOnStart, 0));
  auto outcome = rt.run();
  EXPECT_EQ(outcome.stopped_at_iteration, 0);
  EXPECT_EQ(outcome.observed, Manifestation::FailOnStart);
  // The config-verify fingerprint is planted.
  int mismatched = 0;
  for (const auto& c : rt.host_configs()) {
    mismatched += c.nccl_version != ClusterRuntime::HostConfig{}.nccl_version ? 1 : 0;
  }
  EXPECT_EQ(mismatched, 1);
}

TEST(ClusterRuntime, OpticalFiberFailSlowDegradesCommTimes) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 5);
  auto fault = rt.make_fault(RootCause::OpticalFiber, Manifestation::FailSlow, 2);
  rt.inject(fault);
  auto outcome = rt.run();
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.observed, Manifestation::FailSlow);
  // Iterations after injection have at least one much slower comm.
  double before = 0.0, after = 0.0;
  for (const auto& ev : rt.telemetry().nccl_timeline()) {
    if (ev.iteration < 2) {
      before = std::max(before, ev.comm_time);
    } else {
      after = std::max(after, ev.comm_time);
    }
  }
  EXPECT_GT(after, before * 2.0);
  // The optical warning is in the switch syslog.
  bool warned = false;
  for (const auto& log : rt.telemetry().syslog()) {
    warned |= log.message.find("optical") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

TEST(ClusterRuntime, SwitchBugBlackholeHangsSilently) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 6);
  rt.inject(rt.make_fault(RootCause::SwitchBug, Manifestation::FailHang, 2));
  auto outcome = rt.run();
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.observed, Manifestation::FailHang);
  EXPECT_TRUE(rt.telemetry().syslog().empty());  // silent
  EXPECT_TRUE(rt.telemetry().err_cqes().empty());
  // But MOD drop counters betray the blackhole.
  bool drops = false;
  for (const auto& s : rt.telemetry().link_counters()) drops |= s.mod_drops > 0;
  EXPECT_TRUE(drops);
}

TEST(ClusterRuntime, NicErrorEmitsErrCqeAndStops) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 7);
  rt.inject(rt.make_fault(RootCause::NicError, Manifestation::FailStop, 1));
  auto outcome = rt.run();
  EXPECT_EQ(outcome.observed, Manifestation::FailStop);
  EXPECT_FALSE(rt.telemetry().err_cqes().empty());
}

TEST(ClusterRuntime, CclBugHangShowsMissingWorkRequest) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 8);
  auto fault = rt.make_fault(RootCause::CclBug, Manifestation::FailHang, 2);
  rt.inject(fault);
  auto outcome = rt.run();
  EXPECT_EQ(outcome.observed, Manifestation::FailHang);
  auto evs = rt.telemetry().iteration_events(2);
  int not_started = 0;
  for (const auto& ev : evs) {
    if (ev.wr_started == 0) {
      ++not_started;
      EXPECT_EQ(ev.host_rank, fault.target_host_rank);
    }
  }
  EXPECT_EQ(not_started, 1);
}

TEST(ClusterRuntime, PcieDegradeCausesPfcStorm) {
  auto f = test_fabric();
  auto job = small_job();
  job.comm_bytes = 32ull * 1024 * 1024;
  ClusterRuntime rt(f, job, 9);
  auto fault = rt.make_fault(RootCause::PcieDegrade, Manifestation::FailSlow, 1);
  ASSERT_NE(fault.target_link, topo::kInvalidLink);
  rt.inject(fault);
  auto outcome = rt.run();
  EXPECT_EQ(outcome.observed, Manifestation::FailSlow);
  std::uint64_t pfc = 0;
  for (const auto& s : rt.telemetry().link_counters()) pfc += s.pfc_pauses;
  EXPECT_GT(pfc, 0u);  // congestion spreading
  // With PCIe monitoring on, the host log names the culprit.
  bool pcie_log = false;
  for (const auto& log : rt.telemetry().syslog()) {
    pcie_log |= log.message.find("PCIe") != std::string::npos;
  }
  EXPECT_TRUE(pcie_log);
}

TEST(ClusterRuntime, PcieMonitoringFlagGatesTheLog) {
  auto f = test_fabric();
  auto job = small_job();
  job.pcie_monitoring = false;  // the original system (§5 incident)
  ClusterRuntime rt(f, job, 10);
  rt.inject(rt.make_fault(RootCause::PcieDegrade, Manifestation::FailSlow, 1));
  rt.run();
  for (const auto& log : rt.telemetry().syslog()) {
    EXPECT_EQ(log.message.find("PCIe"), std::string::npos);
  }
}

TEST(ClusterRuntime, LinkFlapIsTransient) {
  auto f = test_fabric();
  ClusterRuntime rt(f, small_job(), 11);
  auto fault = rt.make_fault(RootCause::LinkFlap, Manifestation::FailSlow, 2);
  rt.inject(fault);
  auto outcome = rt.run();
  EXPECT_TRUE(outcome.completed);  // healed after one iteration
  EXPECT_EQ(outcome.observed, Manifestation::FailSlow);
}

// A flow that is not the job's own, on another rail and between hosts
// outside the job, shares no link with the job's ring. It must not hold
// the job's comm phases open: each phase ends when the job's own flows
// drain, so the ledger is bit-identical to the run without it.
TEST(ClusterRuntime, ForeignFlowDoesNotStretchIterations) {
  auto run = [](bool foreign) {
    auto f = test_fabric();
    JobConfig job;
    job.hosts = 12;
    job.iterations = 8;
    job.comm_bytes = 8ull * 1024 * 1024;
    job.recovery.enabled = true;
    ClusterRuntime rt(f, job, 7);
    net::FlowId id = 0;
    if (foreign) {
      net::FlowSpec spec;
      spec.src_host = f.topo().hosts()[12];
      spec.dst_host = f.topo().hosts()[13];
      spec.src_rail = 1;
      spec.dst_rail = 1;
      spec.size = 1ull << 40;  // outlives the whole job
      id = rt.sim().inject(spec);
    }
    RunOutcome out = rt.run();
    if (foreign) {
      const auto& st = rt.sim().flow(id);
      EXPECT_TRUE(st.admitted);
      EXPECT_LT(st.finish, 0.0);  // still in flight when the job ends
    }
    return out;
  };
  const RunOutcome alone = run(false);
  const RunOutcome shared = run(true);
  ASSERT_TRUE(alone.completed);
  EXPECT_EQ(shared.completed, alone.completed);
  EXPECT_EQ(shared.committed_iterations, alone.committed_iterations);
  EXPECT_EQ(shared.useful_time, alone.useful_time);
  EXPECT_EQ(shared.wasted_time, alone.wasted_time);
  EXPECT_EQ(shared.downtime, alone.downtime);
  EXPECT_EQ(shared.makespan, alone.makespan);
  EXPECT_EQ(shared.goodput, alone.goodput);
  EXPECT_EQ(shared.mitigations.size(), alone.mitigations.size());
}

}  // namespace
}  // namespace astral::monitor
