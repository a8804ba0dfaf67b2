// Multi-tenant fleet runtime: single-job equivalence with
// ClusterRuntime, queueing, preemption with checkpoint-commit, elastic
// shrink/regrow, blast-radius accounting, and determinism.
#include "monitor/fleet_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "monitor/cluster_runtime.h"

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

/// Runs the same (pre-built) fault schedule through the single-job
/// ClusterRuntime and through a one-tenant fleet, and demands the fleet
/// ledger reproduce the ClusterRuntime ledger bit for bit. The schedule
/// is built on a scratch runtime so NEITHER side consumes make_fault rng
/// draws before running.
void expect_single_job_equivalence(const std::vector<FaultSpec>& schedule,
                                   JobConfig job, std::uint64_t seed) {
  topo::Fabric ref_fabric(fabric_params());
  ClusterRuntime ref(ref_fabric, job, seed);
  for (const FaultSpec& f : schedule) ref.inject(f);
  RunOutcome want = ref.run();

  topo::Fabric fleet_fabric(fabric_params());
  FleetConfig fc;
  fc.placement = parallel::HostPolicy::InOrder;  // the legacy acquisition
  FleetRuntime fleet(fleet_fabric, fc);
  FleetJobSpec spec;
  spec.job = job;
  spec.arrival = 0.0;
  spec.seed = seed;
  int id = fleet.submit(spec, schedule);
  FleetOutcome out = fleet.run();

  ASSERT_EQ(out.jobs.size(), 1u);
  const FleetJobLedger& ledger = out.jobs[static_cast<std::size_t>(id)];
  ASSERT_EQ(ledger.segments.size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.first_start, 0.0);
  EXPECT_DOUBLE_EQ(ledger.queue_delay, 0.0);
  EXPECT_EQ(ledger.preemptions, 0);
  EXPECT_EQ(ledger.shrinks, 0);
  expect_same_outcome(ledger.merged, want);
  expect_same_outcome(ledger.segments[0].outcome, want);
}

std::vector<FaultSpec> scratch_schedule(
    const std::function<void(ClusterRuntime&, std::vector<FaultSpec>&)>& build,
    JobConfig job, std::uint64_t seed) {
  topo::Fabric fabric(fabric_params());
  ClusterRuntime scratch(fabric, job, seed);
  std::vector<FaultSpec> out;
  build(scratch, out);
  return out;
}

TEST(Fleet, SingleHealthyJobMatchesClusterRuntime) {
  expect_single_job_equivalence({}, job_config(), 7);
  expect_single_job_equivalence({}, job_config(/*recovery=*/false), 7);
}

TEST(Fleet, SingleFaultedJobMatchesClusterRuntime) {
  JobConfig job = job_config();
  std::uint64_t seed = 77;
  auto schedule = scratch_schedule(
      [](ClusterRuntime& rt, std::vector<FaultSpec>& out) {
        out.push_back(
            rt.make_fault(RootCause::GpuHardware, Manifestation::FailStop, 2));
        out.push_back(rt.make_mid_transfer_tor_death(5, 0.5));
      },
      job, seed);
  expect_single_job_equivalence(schedule, job, seed);
}

TEST(Fleet, SingleDegradedJobMatchesClusterRuntime) {
  JobConfig job = job_config();
  std::uint64_t seed = 13;
  auto schedule = scratch_schedule(
      [](ClusterRuntime& rt, std::vector<FaultSpec>& out) {
        out.push_back(
            rt.make_fault(RootCause::OpticalFiber, Manifestation::FailSlow, 1));
        out.push_back(
            rt.make_fault(RootCause::LinkFlap, Manifestation::FailStop, 4));
      },
      job, seed);
  expect_single_job_equivalence(schedule, job, seed);
}

TEST(Fleet, SubmitRejectsInvalidRecoveryConfig) {
  topo::Fabric fabric(fabric_params());
  FleetRuntime fleet(fabric, FleetConfig{});
  FleetJobSpec spec;
  spec.job = job_config();
  spec.job.recovery.checkpoint_interval = 0;
  EXPECT_THROW(fleet.submit(spec), std::invalid_argument);
}

TEST(Fleet, QueueingSerializesOversubscribedJobs) {
  topo::Fabric fabric(fabric_params());  // 16 hosts
  FleetConfig fc;
  fc.placement = parallel::HostPolicy::InOrder;
  FleetRuntime fleet(fabric, fc);
  for (int i = 0; i < 3; ++i) {
    FleetJobSpec spec;
    spec.job = job_config();
    spec.job.hosts = 12;  // only one fits at a time
    spec.arrival = 0.1 * static_cast<double>(i);
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    fleet.submit(spec);
  }
  FleetOutcome out = fleet.run();
  ASSERT_EQ(out.jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(out.completion_rate, 1.0);
  // FIFO within equal priority: each successor waits for its predecessor.
  EXPECT_DOUBLE_EQ(out.jobs[0].queue_delay, 0.0);
  EXPECT_GT(out.jobs[1].queue_delay, 0.0);
  EXPECT_GT(out.jobs[2].queue_delay, out.jobs[1].queue_delay);
  EXPECT_GE(out.jobs[1].first_start, out.jobs[0].finish);
  EXPECT_GE(out.jobs[2].first_start, out.jobs[1].finish);
  EXPECT_GT(out.queue_delay_p99, 0.0);
  EXPECT_GT(out.fleet_goodput, 0.0);
  EXPECT_GT(out.jobs_per_hour, 0.0);
}

TEST(Fleet, PreemptionChargesOnlyUncheckpointedWork) {
  topo::Fabric fabric(fabric_params());
  FleetConfig fc;
  fc.placement = parallel::HostPolicy::InOrder;
  FleetRuntime fleet(fabric, fc);

  FleetJobSpec victim;
  victim.job = job_config();
  victim.job.hosts = 12;
  victim.job.iterations = 16;
  victim.arrival = 0.0;
  victim.priority = 0;
  victim.seed = 5;
  int victim_id = fleet.submit(victim);

  FleetJobSpec vip;
  vip.job = job_config();
  vip.job.hosts = 12;
  vip.job.iterations = 4;
  vip.arrival = 0.5;  // lands mid-run of the victim
  vip.priority = 1;
  vip.seed = 6;
  int vip_id = fleet.submit(vip);

  FleetOutcome out = fleet.run();
  const FleetJobLedger& v = out.jobs[static_cast<std::size_t>(victim_id)];
  const FleetJobLedger& p = out.jobs[static_cast<std::size_t>(vip_id)];

  EXPECT_TRUE(p.completed);
  EXPECT_TRUE(v.completed);
  ASSERT_GE(v.preemptions, 1);
  ASSERT_GE(v.segments.size(), 2u);
  EXPECT_EQ(v.segments[0].end, SegmentEnd::Preempted);
  // Checkpoint-commit: the charge is bounded by one checkpoint interval
  // of useful time — committed-and-checkpointed work is never re-billed.
  int ci = victim.job.recovery.checkpoint_interval;
  const SegmentRecord& s0 = v.segments[0];
  EXPECT_GE(v.preempted_cost, 0.0);
  EXPECT_LE(v.preempted_cost, s0.outcome.useful_time);
  EXPECT_EQ(v.segments[1].start_iteration,
            (s0.outcome.committed_iterations / ci) * ci);
  // The VIP barely waits (one rewind + requeue, not the victim's whole
  // remaining run).
  EXPECT_LT(p.queue_delay, v.finish - p.arrival);
  // All work eventually lands: the victim finishes all 16 iterations.
  EXPECT_EQ(v.merged.committed_iterations, 16);
  EXPECT_DOUBLE_EQ(out.preemption_cost, v.preempted_cost);
}

TEST(Fleet, ElasticShrinkThenRegrow) {
  topo::FabricParams p;
  p.rails = 2;
  p.hosts_per_block = 2;
  p.blocks_per_pod = 2;
  p.pods = 1;  // 4 hosts: no spare capacity until the cordon heals
  topo::Fabric fabric(p);

  FleetConfig fc;
  fc.placement = parallel::HostPolicy::InOrder;
  fc.elastic.min_hosts = 2;
  fc.elastic.cordon_heal_time = 5.0;
  FleetRuntime fleet(fabric, fc);

  FleetJobSpec spec;
  spec.job = job_config();
  spec.job.hosts = 4;
  spec.job.iterations = 12;
  spec.job.recovery.max_restarts = 0;  // first host loss is terminal
  spec.arrival = 0.0;
  spec.seed = 9;

  FaultSpec dead;
  dead.cause = RootCause::GpuHardware;
  dead.manifestation = Manifestation::FailStop;
  dead.target_host_rank = 1;
  dead.at_iteration = 2;
  int id = fleet.submit(spec, {dead});

  FleetOutcome out = fleet.run();
  const FleetJobLedger& ledger = out.jobs[static_cast<std::size_t>(id)];
  EXPECT_TRUE(ledger.completed);
  EXPECT_GE(ledger.shrinks, 1);
  EXPECT_GE(ledger.regrows, 1);
  ASSERT_GE(ledger.segments.size(), 3u);
  EXPECT_EQ(ledger.segments[0].end, SegmentEnd::Shrunk);
  EXPECT_EQ(ledger.segments[0].hosts, 4);
  // The shrunk segment really runs smaller, then full size returns.
  bool saw_shrunk = false;
  for (const SegmentRecord& seg : ledger.segments) {
    if (seg.end == SegmentEnd::Regrown || seg.end == SegmentEnd::Completed) {
      if (seg.hosts == 3) saw_shrunk = true;
    }
  }
  EXPECT_TRUE(saw_shrunk);
  EXPECT_EQ(ledger.segments.back().end, SegmentEnd::Completed);
  EXPECT_EQ(ledger.segments.back().hosts, 4);
  EXPECT_EQ(ledger.merged.committed_iterations, 12);
}

TEST(Fleet, SwitchFaultBlastRadiusSpansTenants) {
  topo::Fabric fabric(fabric_params());
  FleetConfig fc;
  fc.placement = parallel::HostPolicy::InOrder;
  FleetRuntime fleet(fabric, fc);
  for (int i = 0; i < 2; ++i) {
    FleetJobSpec spec;
    spec.job = job_config();
    spec.job.hosts = 4;  // both tenants land in block 0 (InOrder)
    // Comm-bound (~80 ms transfers) so the strike lands mid-flight.
    spec.job.compute_time = 0.001;
    spec.job.comm_bytes = 2ull * 1024 * 1024 * 1024;
    spec.arrival = 0.0;
    spec.seed = 20 + static_cast<std::uint64_t>(i);
    fleet.submit(spec);
  }
  // Kill the whole rail-0 ToR of block 0 mid-run: one hardware event,
  // every tenant behind that switch is in the blast radius.
  topo::NodeId host0 = fabric.topo().hosts()[0];
  topo::LinkId uplink = fabric.topo().out_links(host0)[0];
  FleetFault ff;
  ff.at_time = 0.3;
  ff.cause = RootCause::SwitchBug;
  ff.manifestation = Manifestation::FailStop;
  ff.target_link = uplink;
  ff.switch_scope = true;
  fleet.inject(ff);

  FleetOutcome out = fleet.run();
  ASSERT_EQ(out.faults.size(), 1u);
  EXPECT_EQ(out.faults[0].jobs_touched.size(), 2u);
  EXPECT_GE(out.faults[0].host_hours_lost, 0.0);
  // Dual-rail failover: both tenants survive the ToR death, and the
  // in-flight reroute is credited to the tenants whose flows moved.
  EXPECT_TRUE(out.jobs[0].completed);
  EXPECT_TRUE(out.jobs[1].completed);
  EXPECT_GE(out.jobs[0].merged.reroutes + out.jobs[1].merged.reroutes, 1);
}

TEST(Fleet, HostFaultTouchesOnlyItsTenant) {
  topo::Fabric fabric(fabric_params());
  FleetConfig fc;
  fc.placement = parallel::HostPolicy::InOrder;
  FleetRuntime fleet(fabric, fc);
  for (int i = 0; i < 2; ++i) {
    FleetJobSpec spec;
    spec.job = job_config();
    spec.job.hosts = 4;
    spec.arrival = 0.0;
    spec.seed = 30 + static_cast<std::uint64_t>(i);
    fleet.submit(spec);
  }
  FleetFault ff;
  ff.at_time = 0.3;
  ff.cause = RootCause::GpuHardware;
  ff.manifestation = Manifestation::FailStop;
  ff.target_host = 1;  // owned by tenant 0 (InOrder)
  fleet.inject(ff);

  FleetOutcome out = fleet.run();
  ASSERT_EQ(out.faults.size(), 1u);
  ASSERT_EQ(out.faults[0].jobs_touched.size(), 1u);
  EXPECT_EQ(out.faults[0].jobs_touched[0], 0);
  EXPECT_GT(out.faults[0].host_hours_lost, 0.0);
  EXPECT_TRUE(out.jobs[1].completed);
  EXPECT_EQ(out.jobs[1].merged.mitigations.size(), 0u);
}

TEST(Fleet, ArrivalProcessIsSeededAndDeterministic) {
  ArrivalProcessConfig cfg;
  cfg.jobs = 16;
  cfg.seed = 42;
  auto a = generate_arrivals(cfg);
  auto b = generate_arrivals(cfg);
  ASSERT_EQ(a.size(), 16u);
  core::Seconds prev = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job.hosts, b[i].job.hosts);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_GE(a[i].arrival, prev);
    prev = a[i].arrival;
    bool known_size = a[i].job.hosts == 4 || a[i].job.hosts == 8 ||
                      a[i].job.hosts == 12;
    EXPECT_TRUE(known_size);
  }
  cfg.seed = 43;
  auto c = generate_arrivals(cfg);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival != c[i].arrival || a[i].job.hosts != c[i].job.hosts) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

// Every segment's ledger partitions its wall clock: useful + wasted +
// downtime = makespan, within perfbench's fleet-campaign tolerance.
TEST(Fleet, SegmentLedgersAddUpToMakespan) {
  topo::Fabric fabric(fabric_params());
  FleetConfig fc;
  ArrivalProcessConfig ap;
  ap.jobs = 10;
  ap.arrival_rate = 4.0;
  ap.sizes = {4, 8, 12};
  ap.size_weights = {0.4, 0.4, 0.2};
  ap.priorities = {0, 0, 1};
  ap.iterations = 8;
  ap.recovery.enabled = true;
  ap.seed = 23;
  FleetRuntime fleet(fabric, fc);
  for (const FleetJobSpec& spec : generate_arrivals(ap)) fleet.submit(spec);
  FleetFault link;
  link.at_time = 0.3;
  link.cause = RootCause::OpticalFiber;
  link.manifestation = Manifestation::FailStop;
  link.target_link = fabric.topo().out_links(fabric.topo().hosts()[0])[0];
  link.heal_after = 2.0;
  fleet.inject(link);
  FleetFault host;
  host.at_time = 0.8;
  host.cause = RootCause::GpuHardware;
  host.manifestation = Manifestation::FailStop;
  host.target_host = 6;
  fleet.inject(host);

  const FleetOutcome out = fleet.run();
  int segments = 0, preemptions = 0, mitigations = 0;
  for (const FleetJobLedger& jl : out.jobs) {
    preemptions += jl.preemptions;
    for (std::size_t k = 0; k < jl.segments.size(); ++k) {
      const RunOutcome& o = jl.segments[k].outcome;
      ++segments;
      mitigations += static_cast<int>(o.mitigations.size());
      const double gap = o.useful_time + o.wasted_time + o.downtime - o.makespan;
      EXPECT_LE(std::abs(gap), 1e-6 * std::max(1.0, o.makespan))
          << "job " << jl.job_id << " segment " << k;
    }
  }
  // The campaign must reach the ledger's other terms, not only useful time.
  EXPECT_GT(segments, static_cast<int>(out.jobs.size()));
  EXPECT_GT(preemptions, 0);
  EXPECT_GT(mitigations, 0);
}

TEST(Fleet, MixedCampaignIsDeterministic) {
  auto run_once = [] {
    topo::Fabric fabric(fabric_params());
    FleetConfig fc;
    fc.placement = parallel::HostPolicy::RailAligned;
    ArrivalProcessConfig ap;
    ap.jobs = 6;
    ap.arrival_rate = 2.0;
    ap.sizes = {4, 8};
    ap.size_weights = {0.6, 0.4};
    ap.iterations = 6;
    ap.seed = 11;
    FleetRuntime fleet(fabric, fc);
    for (const FleetJobSpec& spec : generate_arrivals(ap)) fleet.submit(spec);
    topo::NodeId host0 = fabric.topo().hosts()[0];
    FleetFault ff;
    ff.at_time = 0.4;
    ff.cause = RootCause::OpticalFiber;
    ff.manifestation = Manifestation::FailStop;
    ff.target_link = fabric.topo().out_links(host0)[0];
    ff.heal_after = 5.0;
    fleet.inject(ff);
    return fleet.run().to_json().dump(0);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace astral::monitor
