// Multi-tenant fleet runtime: a scheduler admitting a stream of
// mixed-size training jobs onto ONE shared fabric + FluidSim, placing
// them through parallel::place_hosts policies and multiplexing their
// JobEngine coroutines so simulated time advances globally (the resumed
// engine always advances the sim to its own awaited time, which the
// scheduler guarantees is the fleet-wide minimum).
//
// Faults are fleet-level events (FleetFault): a single link, switch, or
// host failure strikes whatever tenants its blast radius covers — each
// affected engine receives the fault through its own mitigation state
// machine, and the fleet ledger records blast radius per fault (jobs
// touched, host-hours lost). Two fleet-only mechanisms sit on top of
// the per-job machinery:
//
//  * Elastic shrink/regrow: a job that loses a host past its restart
//    budget (terminal Abort on a host-side fault) shrinks to the
//    surviving host set (cordoning the dead host), recomputes its
//    collective groups (a fresh segment re-registers ring QPs over the
//    smaller set), and regrows to full size at an iteration boundary
//    once the cordoned host heals or capacity frees.
//
//  * Preemption with checkpoint-commit: a higher-priority arrival may
//    preempt lower-priority tenants; the victim is charged only its
//    uncheckpointed work (committed-but-uncheckpointed iterations are
//    replayed by the next segment) and re-queues from its checkpoint.
//
// ClusterRuntime drives the same JobEngine through the same suspend/
// resume path with one tenant, so a fleet running exactly one job with no
// fleet faults reproduces the ClusterRuntime ledger bit for bit (enforced
// by monitor_fleet_test and the fleet-campaign CI gate).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/json.h"
#include "monitor/job_engine.h"
#include "net/fluid_sim.h"
#include "parallel/placement.h"

namespace astral::monitor {

/// One fleet-level fault event. Unlike the per-job FaultSpec (which is
/// scheduled against a job's iteration count), fleet faults strike at
/// absolute simulated times and name fabric resources: whichever jobs
/// hold those resources are in the blast radius.
struct FleetFault {
  core::Seconds at_time = 0.0;
  RootCause cause = RootCause::OpticalFiber;
  Manifestation manifestation = Manifestation::FailStop;
  /// Network faults: the stricken link (switch_scope widens to the whole
  /// fabric-side switch). Host faults leave this invalid.
  topo::LinkId target_link = topo::kInvalidLink;
  /// Host faults: index into fabric.topo().hosts(); -1 for network faults.
  int target_host = -1;
  bool switch_scope = false;
  double degrade_factor = 0.2;  ///< FailSlow capacity multiplier.
  /// Repair time; < 0 means the hardware never heals within the run.
  core::Seconds heal_after = -1.0;
};

/// Elastic shrink/regrow policy.
struct ElasticConfig {
  bool enabled = true;
  /// A job never shrinks below this many hosts (and never below 2).
  int min_hosts = 2;
  /// A host cordoned by a shrink returns to the free pool after this
  /// long (hardware swap / reboot).
  core::Seconds cordon_heal_time = 600.0;
};

/// One tenant submitted to the fleet.
struct FleetJobSpec {
  JobConfig job;
  core::Seconds arrival = 0.0;
  /// Higher preempts lower (with FleetConfig::preemption). Ties never
  /// preempt each other.
  int priority = 0;
  std::uint64_t seed = 1;
};

struct FleetConfig {
  parallel::HostPolicy placement = parallel::HostPolicy::RailAligned;
  bool preemption = true;
  ElasticConfig elastic;
  std::uint64_t seed = 1;
  /// Hard wall-clock stop: anything still running is interrupted and
  /// anything still queued is abandoned (safety net against pathological
  /// scenarios; generous by default).
  core::Seconds drain_deadline = 1e9;
};

/// Why a placement segment ended.
enum class SegmentEnd : std::uint8_t {
  Completed,  ///< The job finished its iterations.
  Aborted,    ///< Mitigation budget exhausted, no elastic way out.
  Preempted,  ///< A higher-priority arrival took the hosts.
  Shrunk,     ///< Host lost for good; job continues on fewer hosts.
  Regrown,    ///< Capacity returned; job re-expands to full size.
  Deadline,   ///< The fleet drain deadline interrupted it.
};

const char* to_string(SegmentEnd end);

/// One contiguous placement epoch of a job: fixed host set, one
/// JobEngine, one RunOutcome.
struct SegmentRecord {
  core::Seconds start_time = 0.0;
  core::Seconds end_time = 0.0;
  int start_iteration = 0;
  int hosts = 0;  ///< Host count of this segment (may be < job.hosts).
  SegmentEnd end = SegmentEnd::Completed;
  RunOutcome outcome;
};

/// Whole-lifetime ledger of one tenant.
struct FleetJobLedger {
  int job_id = 0;
  int priority = 0;
  core::Seconds arrival = 0.0;
  core::Seconds first_start = -1.0;  ///< First admission; -1 = never ran.
  core::Seconds finish = -1.0;       ///< Left the fleet (either way).
  bool completed = false;
  int preemptions = 0;
  int shrinks = 0;
  int regrows = 0;
  /// Admission wait: first_start - arrival (0 when never admitted).
  core::Seconds queue_delay = 0.0;
  /// Useful seconds lost to preemption rewinds (uncheckpointed work the
  /// victim replays; the checkpoint-commit charge).
  core::Seconds preempted_cost = 0.0;
  std::vector<SegmentRecord> segments;
  /// Cross-segment roll-up. For a single-segment job this is exactly the
  /// segment's RunOutcome (the ClusterRuntime-equivalence contract).
  RunOutcome merged;
};

/// Blast radius of one fleet fault.
struct FleetFaultLedger {
  FleetFault fault;
  std::vector<int> jobs_touched;  ///< Tenants that saw the fault.
  /// Host-hours of allocated capacity lost to it: mitigation MTTR,
  /// shrink rewinds and the restart gaps they force.
  double host_hours_lost = 0.0;
};

struct FleetOutcome {
  std::vector<FleetJobLedger> jobs;
  std::vector<FleetFaultLedger> faults;
  core::Seconds makespan = 0.0;  ///< Last job departure.
  /// Useful host-seconds / allocated host-seconds over all segments: the
  /// fraction of handed-out capacity converted into committed work.
  double fleet_goodput = 0.0;
  double allocated_host_hours = 0.0;
  double useful_host_hours = 0.0;
  double queue_delay_mean = 0.0;
  double queue_delay_p50 = 0.0;
  double queue_delay_p99 = 0.0;
  double jobs_per_hour = 0.0;      ///< Completed jobs per makespan hour.
  double preemption_cost = 0.0;    ///< Total checkpoint-commit charge (s).
  double completion_rate = 0.0;    ///< Completed / submitted.
  core::Json to_json() const;
};

/// Seeded Poisson arrival process over a mixed job-size distribution;
/// the campaign's workload generator.
struct ArrivalProcessConfig {
  int jobs = 8;
  double arrival_rate = 0.01;  ///< Jobs per simulated second.
  std::vector<int> sizes = {4, 8, 12};
  std::vector<double> size_weights = {0.5, 0.3, 0.2};
  std::vector<int> priorities = {0, 0, 0, 1};  ///< Drawn uniformly.
  int iterations = 8;
  core::Bytes comm_bytes = 8 * 1024 * 1024;
  RecoveryConfig recovery;
  std::uint64_t seed = 1;
};

std::vector<FleetJobSpec> generate_arrivals(const ArrivalProcessConfig& cfg);

class FleetRuntime {
 public:
  FleetRuntime(topo::Fabric& fabric, FleetConfig cfg);

  /// Registers a tenant (before run()). `local_faults` are per-job
  /// FaultSpecs injected into the job's first segment (validated there);
  /// fleet-level hardware faults go through inject() instead. Returns
  /// the job id (submission order).
  int submit(FleetJobSpec spec, std::vector<FaultSpec> local_faults = {});

  /// Schedules a fleet-level fault (before run()).
  void inject(const FleetFault& fault);

  FleetOutcome run();

  net::FluidSim& sim() { return *sim_; }
  /// Telemetry of the job's last (or current) segment engine; nullptr
  /// before the job ever started.
  const TelemetryStore* job_telemetry(int job_id) const;

  void set_tracer(obs::Tracer* tracer);
  void set_metrics(obs::Metrics* metrics);
  /// Attaches the always-on streaming diagnosis service: every segment
  /// engine subscribes it to its telemetry store, fleet faults and
  /// blast-radius charges stream into its per-Pod rollups, and segment
  /// retirement finalizes each job's online diagnosis. The analyzer
  /// must outlive the fleet run. nullptr detaches for future segments.
  void set_stream_analyzer(StreamAnalyzer* stream) { stream_ = stream; }

 private:
  enum class JobState : std::uint8_t { Queued, Starting, Running, Done };

  struct JobRt {
    FleetJobSpec spec;
    std::vector<FaultSpec> local_faults;
    FleetJobLedger ledger;
    JobState state = JobState::Queued;
    int start_iteration = 0;          ///< Next segment resumes here.
    int segment_start_iteration = 0;  ///< Where the live segment began.
    std::vector<int> host_idx;     ///< Fabric host indices held/reserved.
    std::vector<topo::NodeId> host_nodes;
    bool local_faults_spent = false;
    bool regrow_pending = false;  ///< Running shrunk; wants full size.
    /// Healed cordon replacements held for this job's regrow; they stay
    /// out of the free pool until the job regrows or finishes.
    std::vector<int> reserved;
    core::Seconds segment_start = 0.0;
    std::unique_ptr<JobEngine> engine;
    std::vector<std::unique_ptr<JobEngine>> retired;
    /// Engine-local fault index -> fleet fault id, per live engine.
    std::map<int, int> fault_map;
  };

  // Scheduler events; processed in (t, kind, seq) order, before any
  // engine whose wake time is later (ties: events first).
  enum class EventKind : std::uint8_t {
    FaultHeal,
    CordonHeal,
    FaultStrike,
    Arrival,
    StartSegment,
  };
  struct Event {
    core::Seconds t = 0.0;
    EventKind kind = EventKind::Arrival;
    int idx = 0;  ///< Fault id / host index / job id, per kind.
    int seq = 0;
  };

  void push_event(core::Seconds t, EventKind kind, int idx);
  bool pop_next_event(core::Seconds before_or_at, Event* out);

  void try_admit();
  bool admit(JobRt& job, std::vector<int> hosts);
  void start_segment(JobRt& job);
  void preempt(JobRt& victim, int for_job);
  void retire_segment(JobRt& job, SegmentEnd end);
  void finish_job(JobRt& job, bool completed);
  void handle_engine_done(JobRt& job);
  bool try_regrow(JobRt& job);
  void heal_cordon(int host);
  void strike_fleet_fault(int fault_id);
  void heal_fleet_fault(int fault_id);
  /// Pod a fleet fault's target lives in (for the streaming rollups).
  int fault_pod(const FleetFault& f) const;
  /// Streams a blast-radius host-hour charge + updates the ledger.
  void charge_blast(int fault_id, double hours);
  void resume_engine(JobRt& job);
  /// Allocated-capacity charge helper: seconds * hosts -> host-hours.
  static double host_hours(core::Seconds s, int hosts) {
    return s * hosts / 3600.0;
  }

  topo::Fabric& fabric_;
  FleetConfig cfg_;
  std::unique_ptr<net::FluidSim> sim_;
  core::Rng rng_;
  std::deque<JobRt> jobs_;
  std::vector<FleetFaultLedger> faults_;
  /// Links each fleet fault took down (for its heal event).
  std::vector<std::vector<topo::LinkId>> fault_links_;
  std::vector<Event> events_;  ///< Min-heap on (t, kind, seq).
  int event_seq_ = 0;
  /// Ids of the jobs a segment started running, ascending. A job that
  /// stopped running leaves at the next pick; start_segment re-adds it.
  std::vector<int> running_;
  std::vector<char> free_;  ///< Free mask over fabric hosts.
  /// Cordoned host -> job it was pulled from; on heal the replacement is
  /// offered back to that tenant before rejoining the free pool.
  std::map<int, int> cordon_owner_;
  obs::Tracer* tracer_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  StreamAnalyzer* stream_ = nullptr;
  bool ran_ = false;
};

}  // namespace astral::monitor
