// Recovery-aware job lifecycle: multi-fault schedules, the mitigation
// state machine (retry / reroute / restart-from-checkpoint), in-flight
// dual-ToR failover, and the availability ledger in RunOutcome.
#include "monitor/cluster_runtime.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "monitor/mttlf.h"

namespace astral::monitor {
namespace {

topo::FabricParams fabric_params() {
  topo::FabricParams p;
  p.rails = 2;
  p.hosts_per_block = 8;
  p.blocks_per_pod = 2;
  p.pods = 1;
  return p;
}

JobConfig job_config(bool recovery = true) {
  JobConfig job;
  job.hosts = 12;
  job.iterations = 8;
  job.comm_bytes = 8ull * 1024 * 1024;
  job.recovery.enabled = recovery;
  return job;
}

void expect_same_record(const MitigationRecord& a, const MitigationRecord& b) {
  EXPECT_EQ(a.fault_index, b.fault_index);
  EXPECT_EQ(a.at_iteration, b.at_iteration);
  EXPECT_EQ(a.observed, b.observed);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_DOUBLE_EQ(a.detect_time, b.detect_time);
  EXPECT_DOUBLE_EQ(a.locate_time, b.locate_time);
  EXPECT_DOUBLE_EQ(a.recover_time, b.recover_time);
}

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.stopped_at_iteration, b.stopped_at_iteration);
  EXPECT_EQ(a.observed, b.observed);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.committed_iterations, b.committed_iterations);
  EXPECT_DOUBLE_EQ(a.useful_time, b.useful_time);
  EXPECT_DOUBLE_EQ(a.wasted_time, b.wasted_time);
  EXPECT_DOUBLE_EQ(a.downtime, b.downtime);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.goodput, b.goodput);
  ASSERT_EQ(a.mitigations.size(), b.mitigations.size());
  for (std::size_t i = 0; i < a.mitigations.size(); ++i) {
    expect_same_record(a.mitigations[i], b.mitigations[i]);
  }
}

/// Every flow the job ever admitted either finished or was aborted —
/// nothing is left stalled on a link that died during the run.
void expect_all_flows_retired(ClusterRuntime& rt) {
  auto& sim = rt.sim();
  EXPECT_TRUE(sim.idle());
  for (std::size_t i = 0; i < sim.flow_count(); ++i) {
    const auto& f = sim.flow(static_cast<net::FlowId>(i));
    if (!f.admitted) continue;
    EXPECT_TRUE(f.finish >= 0.0 || f.aborted) << "flow " << i << " left live";
  }
}

TEST(Recovery, InjectRejectsInvalidSpecs) {
  topo::Fabric fabric(fabric_params());
  ClusterRuntime rt(fabric, job_config());

  FaultSpec no_link;
  no_link.cause = RootCause::OpticalFiber;  // network cause...
  no_link.target_link = topo::kInvalidLink;  // ...with no target
  EXPECT_THROW(rt.inject(no_link), std::invalid_argument);

  FaultSpec bad_rank;
  bad_rank.cause = RootCause::GpuHardware;
  bad_rank.target_host_rank = 999;
  EXPECT_THROW(rt.inject(bad_rank), std::invalid_argument);

  FaultSpec bad_fraction = rt.make_fault(RootCause::OpticalFiber,
                                         Manifestation::FailSlow, 2);
  bad_fraction.mid_transfer_fraction = 1.5;
  EXPECT_THROW(rt.inject(bad_fraction), std::invalid_argument);

  // A schedule is validated spec by spec.
  FaultSchedule sched;
  sched.add(rt.make_fault(RootCause::NicError, Manifestation::FailStop, 1));
  sched.add(no_link);
  EXPECT_THROW(rt.inject(sched), std::invalid_argument);

  EXPECT_NO_THROW(
      rt.inject(rt.make_fault(RootCause::NicError, Manifestation::FailStop, 1)));
}

TEST(Recovery, DeterministicReplay) {
  topo::FabricParams p = fabric_params();
  auto run_once = [&] {
    topo::Fabric fabric(p);
    ClusterRuntime rt(fabric, job_config(), /*seed=*/77);
    FaultSchedule sched;
    sched.add(rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 2));
    sched.add(rt.make_mid_transfer_tor_death(5, 0.5));
    rt.inject(sched);
    RunOutcome out = rt.run();
    return std::pair<RunOutcome, std::size_t>(out, rt.telemetry().syslog().size() +
                                                       rt.telemetry().qp_rates().size() +
                                                       rt.telemetry().nccl_timeline().size());
  };
  auto [a, na] = run_once();
  auto [b, nb] = run_once();
  expect_same_outcome(a, b);
  EXPECT_EQ(na, nb);  // identical telemetry volume, not just outcome
}

TEST(Recovery, CascadingTwoFaultRunCompletes) {
  topo::Fabric fabric(fabric_params());
  ClusterRuntime rt(fabric, job_config(), /*seed=*/5);
  FaultSchedule sched;
  // A GPU dies at iteration 2 (isolate + restart from checkpoint), then a
  // whole ToR dies mid-transfer at iteration 5 (in-flight failover).
  sched.add(rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 2));
  sched.add(rt.make_mid_transfer_tor_death(5, 0.5));
  rt.inject(sched);
  RunOutcome out = rt.run();

  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.committed_iterations, rt.config().iterations);
  EXPECT_GE(out.mitigations.size(), 2u);
  EXPECT_GE(out.restarts, 1);
  EXPECT_GE(out.reroutes, 1);
  expect_all_flows_retired(rt);
}

TEST(Recovery, MidTransferTorDeathSurvivedByDualTor) {
  topo::Fabric fabric(fabric_params());
  ClusterRuntime rt(fabric, job_config(), /*seed=*/9);
  rt.inject(rt.make_mid_transfer_tor_death(3, 0.5));
  RunOutcome out = rt.run();

  EXPECT_TRUE(out.completed);
  EXPECT_GE(out.reroutes, 1);  // flows moved to the surviving side
  bool saw_reroute = false;
  for (const auto& m : out.mitigations) {
    saw_reroute |= m.action == MitigationAction::Reroute;
  }
  EXPECT_TRUE(saw_reroute);
  expect_all_flows_retired(rt);
}

TEST(Recovery, TransientFaultRetriesWithBackoff) {
  topo::Fabric fabric(fabric_params());
  JobConfig job = job_config();
  ClusterRuntime rt(fabric, job, /*seed=*/11);
  // LinkFlap: make_fault marks it transient (repairs after one attempt),
  // so the state machine should wait it out instead of rerouting.
  FaultSpec flap = rt.make_fault(RootCause::LinkFlap, Manifestation::FailStop, 2);
  ASSERT_GE(flap.repair_iterations, 0);
  rt.inject(flap);
  RunOutcome out = rt.run();

  EXPECT_TRUE(out.completed);
  EXPECT_GE(out.retries, 1);
  bool saw_retry = false;
  core::Seconds prev = 0.0;
  for (const auto& m : out.mitigations) {
    if (m.action != MitigationAction::RetryBackoff) continue;
    saw_retry = true;
    EXPECT_GT(m.recover_time, prev);  // exponential backoff grows
    prev = m.recover_time;
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_EQ(out.restarts, 0);
}

TEST(Recovery, DisabledReproducesStopAtFault) {
  topo::Fabric fabric(fabric_params());
  auto make_sched = [](ClusterRuntime& rt) {
    FaultSchedule s;
    s.add(rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 2));
    return s;
  };

  ClusterRuntime off(fabric, job_config(/*recovery=*/false), /*seed=*/3);
  off.inject(make_sched(off));
  RunOutcome legacy = off.run();
  EXPECT_FALSE(legacy.completed);
  EXPECT_EQ(legacy.stopped_at_iteration, 2);
  EXPECT_TRUE(legacy.mitigations.empty());
  EXPECT_EQ(legacy.observed, Manifestation::FailStop);

  ClusterRuntime on(fabric, job_config(/*recovery=*/true), /*seed=*/3);
  on.inject(make_sched(on));
  RunOutcome recovered = on.run();
  EXPECT_TRUE(recovered.completed);
  EXPECT_GE(recovered.restarts, 1);
}

TEST(Recovery, RestartAccountingAddsUp) {
  topo::Fabric fabric(fabric_params());
  JobConfig job = job_config();
  job.recovery.checkpoint_interval = 2;
  ClusterRuntime rt(fabric, job, /*seed=*/21);
  // Dies at iteration 3: restart rewinds to the checkpoint at 2, so
  // exactly one committed iteration is replayed as waste.
  rt.inject(rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 3));
  RunOutcome out = rt.run();

  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.restarts, 1);
  EXPECT_GT(out.wasted_time, 0.0);
  EXPECT_GT(out.downtime, 0.0);
  EXPECT_GT(out.useful_time, 0.0);
  // The ledger partitions the wall clock (compute noise makes the split
  // slightly lossy, never the other way around).
  EXPECT_LE(out.useful_time + out.downtime, out.makespan * 1.001);
  double mttr_sum = 0.0;
  for (const auto& m : out.mitigations) mttr_sum += m.mttr();
  EXPECT_NEAR(out.downtime, mttr_sum, 1e-9);
}

TEST(Recovery, LedgerProperties) {
  topo::Fabric fabric(fabric_params());
  for (std::uint64_t seed : {101, 202, 303, 404}) {
    ClusterRuntime rt(fabric, job_config(), seed);
    core::Rng rng(seed);
    FaultSchedule sched;
    RootCause cause = sample_root_cause(rng);
    Manifestation m = sample_manifestation(cause, rng);
    int at = m == Manifestation::FailOnStart
                 ? 0
                 : 1 + static_cast<int>(rng.uniform_int(2));
    sched.add(rt.make_fault(cause, m, at));
    sched.add(rt.make_mid_transfer_tor_death(at + 3, 0.4));
    rt.inject(sched);
    RunOutcome out = rt.run();

    if (out.completed) {
      EXPECT_GT(out.goodput, 0.0) << "seed " << seed;
      EXPECT_LE(out.goodput, 1.0) << "seed " << seed;
      EXPECT_EQ(out.committed_iterations, rt.config().iterations);
    }
    for (const auto& rec : out.mitigations) {
      EXPECT_GE(rec.detect_time, 0.0);
      EXPECT_GE(rec.locate_time, 0.0);
      EXPECT_GE(rec.recover_time, 0.0);
      EXPECT_GE(rec.mttr(), rec.locate_time);  // MTTR includes locate
    }
    EXPECT_GE(out.makespan, 0.0);
    EXPECT_GE(out.useful_time, 0.0);
    EXPECT_GE(out.wasted_time, 0.0);
    expect_all_flows_retired(rt);
  }
}

TEST(Recovery, CampaignSurvivesMultiFaultRuns) {
  AvailabilityConfig cfg;
  cfg.runs = 6;
  auto result = run_availability_campaign(cfg);
  ASSERT_EQ(result.entries.size(), 6u);
  // Every run took >= 2 faults, including a mid-transfer ToR death, and
  // survived them with the recovery machinery engaged.
  EXPECT_DOUBLE_EQ(result.completion_rate(), 1.0);
  EXPECT_GT(result.total_reroutes(), 0);
  EXPECT_GT(result.mean_mttr(), 0.0);
  EXPECT_GT(result.mean_goodput(), 0.0);
  EXPECT_LE(result.mean_goodput(), 1.0);
  for (const auto& e : result.entries) {
    EXPECT_GE(e.faults_injected, 2);
    EXPECT_FALSE(e.outcome.mitigations.empty());
  }

  AvailabilityConfig off = cfg;
  off.job.recovery.enabled = false;
  auto baseline = run_availability_campaign(off);
  EXPECT_DOUBLE_EQ(baseline.completion_rate(), 0.0);  // stop at first fault
}

TEST(Recovery, ValidateRecoveryReportsIndexedDiagnostics) {
  RecoveryConfig rc;
  rc.enabled = true;
  EXPECT_FALSE(validate_recovery(rc).has_value());  // defaults are sane

  rc.checkpoint_interval = 0;
  rc.backoff_base = -1.0;
  rc.backoff_jitter = 1.0;  // must be < 1
  auto err = validate_recovery(rc);
  ASSERT_TRUE(err.has_value());
  // Every problem is reported, each with its own index.
  EXPECT_NE(err->find("[0]"), std::string::npos);
  EXPECT_NE(err->find("[1]"), std::string::npos);
  EXPECT_NE(err->find("[2]"), std::string::npos);
  EXPECT_NE(err->find("checkpoint_interval"), std::string::npos);
  EXPECT_NE(err->find("backoff_base"), std::string::npos);
  EXPECT_NE(err->find("backoff_jitter"), std::string::npos);
}

TEST(Recovery, ConstructionRejectsInvalidRecoveryConfig) {
  topo::Fabric fabric(fabric_params());
  JobConfig job = job_config();
  job.recovery.checkpoint_interval = -2;
  EXPECT_THROW(ClusterRuntime(fabric, job), std::invalid_argument);

  // Disabled recovery is never validated (legacy configs keep working).
  job.recovery.enabled = false;
  EXPECT_NO_THROW(ClusterRuntime(fabric, job));
}

TEST(Recovery, BackoffJitterOffIsByteIdentical) {
  topo::Fabric fabric(fabric_params());
  auto run_once = [&](double jitter) {
    JobConfig job = job_config();
    job.recovery.backoff_jitter = jitter;
    ClusterRuntime rt(fabric, job, /*seed=*/11);
    rt.inject(rt.make_fault(RootCause::LinkFlap, Manifestation::FailStop, 2));
    return rt.run();
  };
  // jitter = 0 scales every wait by exactly 1: bit-identical to the default.
  expect_same_outcome(run_once(0.0), run_once(0.0));

  RunOutcome plain = run_once(0.0);
  RunOutcome jittered = run_once(0.25);
  // Same seed -> deterministic jitter...
  expect_same_outcome(jittered, run_once(0.25));
  // ...that perturbs ONLY retry waits, within the +/-25% band.
  ASSERT_EQ(plain.mitigations.size(), jittered.mitigations.size());
  bool saw_difference = false;
  for (std::size_t i = 0; i < plain.mitigations.size(); ++i) {
    const MitigationRecord& a = plain.mitigations[i];
    const MitigationRecord& b = jittered.mitigations[i];
    EXPECT_EQ(a.action, b.action);
    EXPECT_DOUBLE_EQ(a.detect_time, b.detect_time);
    EXPECT_DOUBLE_EQ(a.locate_time, b.locate_time);
    if (a.action != MitigationAction::RetryBackoff) continue;
    EXPECT_GE(b.recover_time, a.recover_time * 0.75 - 1e-12);
    EXPECT_LE(b.recover_time, a.recover_time * 1.25 + 1e-12);
    if (a.recover_time != b.recover_time) saw_difference = true;
  }
  EXPECT_TRUE(saw_difference);
}

TEST(Recovery, MaxRestartsZeroAbortsOnFirstHostFault) {
  topo::Fabric fabric(fabric_params());
  JobConfig job = job_config();
  job.recovery.max_restarts = 0;
  ClusterRuntime rt(fabric, job, /*seed=*/17);
  rt.inject(rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 3));
  RunOutcome out = rt.run();

  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.stopped_at_iteration, 3);
  EXPECT_EQ(out.restarts, 0);
  ASSERT_FALSE(out.mitigations.empty());
  EXPECT_EQ(out.mitigations.back().action, MitigationAction::Abort);
  EXPECT_FALSE(out.mitigations.back().succeeded);
  // Committed work up to the failure survives in the ledger.
  EXPECT_EQ(out.committed_iterations, 3);
  EXPECT_GT(out.useful_time, 0.0);
}

TEST(Recovery, FaultDuringReplayWindowIsMitigatedAgain) {
  topo::Fabric fabric(fabric_params());
  JobConfig job = job_config();
  job.recovery.checkpoint_interval = 4;
  ClusterRuntime rt(fabric, job, /*seed=*/23);
  // First fault at iteration 5 restarts from the checkpoint at 4; the
  // second fault is scheduled INSIDE the replay window (iteration 5
  // again, after the rewind), so it strikes while the job is replaying
  // already-committed work.
  rt.inject(rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 5));
  rt.inject(rt.make_mid_transfer_tor_death(5, 0.5));
  RunOutcome out = rt.run();

  EXPECT_TRUE(out.completed);
  EXPECT_GE(out.restarts, 1);
  ASSERT_GE(out.mitigations.size(), 2u);
  EXPECT_EQ(out.committed_iterations, job.iterations);
  // The replayed iterations are charged to waste, not useful time.
  EXPECT_GT(out.wasted_time, 0.0);
  bool saw_restart = false, saw_other = false;
  for (const auto& m : out.mitigations) {
    if (m.action == MitigationAction::IsolateRestart) saw_restart = true;
    if (m.action != MitigationAction::IsolateRestart &&
        m.action != MitigationAction::Abort) {
      saw_other = true;
    }
    EXPECT_TRUE(m.succeeded);
  }
  EXPECT_TRUE(saw_restart);
  EXPECT_TRUE(saw_other);
}

TEST(Recovery, OverlappingFaultsResolvedByDifferentActions) {
  topo::Fabric fabric(fabric_params());
  JobConfig job = job_config();
  ClusterRuntime rt(fabric, job, /*seed=*/31);
  // Two faults active in the same iteration, resolved by different arms
  // of the state machine: the transient flap is waited out (RetryBackoff)
  // while the dead GPU forces a checkpoint restart (IsolateRestart).
  rt.inject(rt.make_fault(RootCause::LinkFlap, Manifestation::FailStop, 3));
  rt.inject(rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 3));
  RunOutcome out = rt.run();

  EXPECT_TRUE(out.completed);
  ASSERT_GE(out.mitigations.size(), 2u);
  bool saw_retry = false, saw_restart = false;
  for (const auto& m : out.mitigations) {
    if (m.action == MitigationAction::RetryBackoff) saw_retry = true;
    if (m.action == MitigationAction::IsolateRestart) saw_restart = true;
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_restart);
  EXPECT_GE(out.retries, 1);
  EXPECT_GE(out.restarts, 1);
  // Both mitigations' stalls land in downtime exactly once.
  double mttr_sum = 0.0;
  for (const auto& m : out.mitigations) mttr_sum += m.mttr();
  EXPECT_NEAR(out.downtime, mttr_sum, 1e-9);
}

}  // namespace
}  // namespace astral::monitor
