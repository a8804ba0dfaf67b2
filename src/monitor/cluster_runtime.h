// Simulated production training job over a fabric, generating the
// telemetry of all four monitoring layers while faults are injected.
// This is the substitution for 18 months of production incidents (see
// DESIGN.md): each root cause perturbs the run the way its real
// counterpart does — degraded optics slow a link, a switch bug
// blackholes silently, a broken PCIe lane turns the receiver into a PFC
// storm source, a bad driver hangs collectives — and the corresponding
// layer emits (or pointedly fails to emit) its diagnostic records.
//
// With recovery enabled (JobConfig::recovery) the runtime is a full job
// lifecycle engine: faults come as a FaultSchedule (concurrent and
// cascading, transient and permanent, optionally striking mid-transfer),
// the analyzer localizes each failure, and a mitigation state machine
// decides between retry-with-backoff, routing around the dead
// link/switch, or isolating the host and restarting from the last
// checkpoint. The outcome carries the availability ledger: per-fault
// MTTR, useful vs. wasted iteration time, downtime, and effective
// goodput. With recovery disabled the runtime reproduces the legacy
// stop-at-first-fault behaviour bit for bit.
//
// The lifecycle logic itself lives in monitor::JobEngine, the resumable
// coroutine the fleet scheduler multiplexes. ClusterRuntime runs one
// engine alone: it owns the FluidSim, takes the first cfg.hosts fabric
// hosts, and resumes the engine until it is done.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "coll/comm_group.h"
#include "monitor/faults.h"
#include "monitor/job_engine.h"
#include "monitor/store.h"
#include "net/fluid_sim.h"

namespace astral::obs {
class Tracer;
class Metrics;
}  // namespace astral::obs

namespace astral::monitor {

class TelemetryFaultModel;
class StreamAnalyzer;

class ClusterRuntime {
 public:
  /// Takes the first cfg.hosts fabric hosts in fabric order. Throws
  /// std::invalid_argument when the job does not fit the fabric or
  /// cfg.recovery is enabled and invalid (see validate_recovery).
  ClusterRuntime(topo::Fabric& fabric, JobConfig cfg, std::uint64_t seed = 1);

  /// Schedules one fault; call before run(). May be called repeatedly —
  /// each call appends to the run's schedule. Throws std::invalid_argument
  /// when the spec fails validate_fault (out-of-range rank, network cause
  /// without a target link, ...).
  void inject(const FaultSpec& fault) { engine_->inject(fault); }

  /// Schedules a whole multi-fault scenario (validated spec by spec).
  void inject(const FaultSchedule& schedule) { engine_->inject(schedule); }

  /// Picks a deterministic injection target for a fault of this cause
  /// (a host rank or a fabric link on a job path) and returns the spec.
  FaultSpec make_fault(RootCause cause, Manifestation m, int at_iteration) {
    return engine_->make_fault(cause, m, at_iteration);
  }

  /// A ToR-death scenario striking `fraction` into `at_iteration`'s
  /// transfer: the whole switch over the job's rail-0 uplink goes down
  /// with flows in flight — the case dual-ToR failover exists for.
  FaultSpec make_mid_transfer_tor_death(int at_iteration, double fraction = 0.5) {
    return engine_->make_mid_transfer_tor_death(at_iteration, fraction);
  }

  /// A seeded gray fault on the job's path: flapping link, partial
  /// capacity degrade, or slow-NIC straggler (see GrayKind). Distinct
  /// `hops_from_src` values target distinct path links, keeping a
  /// multi-gray schedule clear of the overlap validator.
  FaultSpec make_gray_fault(GrayKind kind, int at_iteration,
                            int hops_from_src = 2) {
    return engine_->make_gray_fault(kind, at_iteration, hops_from_src);
  }

  RunOutcome run();

  /// Simulation time a scheduled fault activated (by schedule index;
  /// -1 until it strikes). Gray-campaign lead-time accounting compares
  /// this against the stream analyzer's first precursor alarm.
  core::Seconds fault_applied_time(int index) const {
    return engine_->fault_applied_time(index);
  }

  const TelemetryStore& telemetry() const { return engine_->store(); }
  const JobConfig& config() const { return engine_->config(); }
  const std::vector<topo::NodeId>& job_hosts() const { return engine_->hosts(); }
  net::FluidSim& sim() { return *sim_; }

  /// Expected healthy per-iteration times ("thresholds obtained by fast
  /// forecasts using the Seer", §3.3).
  core::Seconds expected_compute() const { return engine_->expected_compute(); }
  core::Seconds expected_comm() const { return engine_->expected_comm(); }

  /// Host config fingerprints for the offline config-verify tool; the
  /// HostEnvConfig fault plants an inconsistency. (The definition moved
  /// to job_engine.h; the alias keeps ClusterRuntime::HostConfig working.)
  using HostConfig = monitor::HostConfig;
  const std::vector<HostConfig>& host_configs() const {
    return engine_->host_configs();
  }

  /// Attaches the flight recorder to the runtime and its FluidSim: the
  /// runtime stamps the ambient job key (JobConfig::job_id), emits
  /// Workload iteration spans, Collective-track ring-phase spans, and
  /// Fault-track injection/detection/location/mitigation events carrying
  /// the MTTR phase breakdown. nullptr detaches.
  void set_tracer(obs::Tracer* tracer);

  /// Attaches a metrics registry to the runtime and its FluidSim:
  /// mitigation counters and the "runtime.mttr_s" histogram, on top of
  /// the sim's solver metrics. nullptr detaches.
  void set_metrics(obs::Metrics* metrics);

  /// Interposes a lossy-collector fault model between the in-simulator
  /// collectors and the TelemetryStore (see monitor/degrade.h): every
  /// telemetry record is routed through it, and run() flushes held-back
  /// records at the end. A clean profile is bit-identical to no model.
  /// nullptr detaches. The model must outlive the runtime's run() calls.
  void set_telemetry_faults(TelemetryFaultModel* model) {
    engine_->set_telemetry_faults(model);
  }

  /// Subscribes the always-on streaming diagnosis service at the job's
  /// telemetry store: every record the store accepts (post-degrade)
  /// streams into its rollups and online triggers as it is ingested,
  /// and completed mitigations feed its MTTR histograms. nullptr
  /// detaches (finalizing the job's online diagnosis). The analyzer
  /// must outlive the runtime or be detached first.
  void set_stream_analyzer(StreamAnalyzer* stream);

 private:
  topo::Fabric& fabric_;
  std::unique_ptr<net::FluidSim> sim_;
  std::unique_ptr<JobEngine> engine_;
};

}  // namespace astral::monitor
