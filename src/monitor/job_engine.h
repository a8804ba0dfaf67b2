// Resumable single-job lifecycle engine: the full fault / mitigation
// state machine (fault activation at iteration boundaries, mid-transfer
// strikes, retry-backoff / reroute / isolate-restart-from-checkpoint,
// the availability ledger) as a coroutine that yields whenever it needs
// simulated time to pass.
//
// There is one drive path. Every forward sim advance suspends with a wake
// time, and the engine parks at each iteration boundary. The runtime that
// owns the engine resumes it once the shared FluidSim may advance to that
// wake time, and the resumed engine advances the sim itself. A comm phase ends when the
// job's own flows drain (or its collective timeout fires), whatever else
// the sim carries. ClusterRuntime drives one engine alone on its sim
// (`start(); while (!done()) resume();`); FleetRuntime interleaves many
// over one shared sim, always resuming the engine whose wake time is the
// global minimum, so the fluid model stays exact for every tenant. Its
// boundary parks are where it delivers faults, preempts, and shrinks or
// regrows a job.
#pragma once

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "monitor/faults.h"
#include "monitor/store.h"
#include "net/fluid_sim.h"
#include "net/wcmp.h"

namespace astral::obs {
class Tracer;
class Metrics;
}  // namespace astral::obs

namespace astral::monitor {

class TelemetryFaultModel;
class StreamAnalyzer;

/// How the job reacts to a localized failure (§3.3 -> operations).
struct RecoveryConfig {
  bool enabled = false;
  /// A checkpoint is durable every this many committed iterations;
  /// restarts replay from the last multiple.
  int checkpoint_interval = 2;
  int max_restarts = 4;  ///< IsolateRestart budget before giving up.
  int max_retries = 3;   ///< Retry budget per transient fault.
  /// Modeled time from failure to the monitoring system noticing.
  core::Seconds detect_time = 5.0;
  /// Scheduler + framework time to relaunch from a checkpoint.
  core::Seconds restart_time = 60.0;
  core::Seconds backoff_base = 2.0;  ///< First retry wait.
  double backoff_factor = 2.0;       ///< Exponential backoff multiplier.
  /// Seeded retry-backoff jitter as a ± fraction of the computed wait
  /// (0.25 -> ±25%), so concurrent tenants hit by one fault don't retry
  /// in lockstep. 0 (the default) leaves every wait unchanged. Must lie
  /// in [0, 1).
  double backoff_jitter = 0.0;
};

/// Validates an (enabled) recovery config. Returns a ';'-joined list of
/// indexed diagnostics ("[0] checkpoint_interval must be > 0 (got -2)"),
/// or nullopt when the config is usable. Engines reject bad configs at
/// construction instead of silently misbehaving mid-run.
std::optional<std::string> validate_recovery(const RecoveryConfig& rc);

/// Gray-failure routing policy: what the engine does about links that
/// degrade without dying. Default `Off` never watches link health, so
/// every legacy code path stays byte-identical to the pre-gray engine.
struct GrayRoutingConfig {
  enum class Mode : std::uint8_t {
    Off,            ///< Gray faults degrade the run; nobody reacts.
    BinaryIsolate,  ///< Old-school: cordon a degraded link outright and
                    ///< restore it when it recovers — oscillates under
                    ///< flapping, paying a config push each swing.
    Wcmp,           ///< Weighted derate + flap damping (net::WcmpController);
                    ///< mitigation latches instead of oscillating.
  };
  Mode mode = Mode::Off;
  /// Wcmp mode only: false disables the suppress/reuse hysteresis (the
  /// oscillating baseline the property tests compare against).
  bool flap_damping = true;
  net::WcmpConfig wcmp;  ///< Health thresholds + weighted-rebalance knobs.
  /// A committed iteration slower than healthy by this factor arms
  /// engage-direction mitigation; below it observed degradations are
  /// noted but not acted on (clean runs never mitigate on noise).
  double arm_slowdown = 1.15;
  /// Config-push stall charged per WCMP weight/port update (hitless-ish).
  core::Seconds derate_push_time = 1.0;
  /// Drain + cordon (or restore) stall charged per binary isolate event.
  core::Seconds isolate_push_time = 5.0;
  /// Wcmp mode, > 0: a SlowNic straggler whose uplinks stay degraded for
  /// this many consecutive control ticks escalates up the ladder from
  /// Derate to IsolateRestart (needs recovery.enabled). 0 = never.
  int escalate_after_ticks = 0;
};

struct JobConfig {
  int hosts = 16;         ///< Job hosts.
  int iterations = 10;
  core::Seconds compute_time = 0.05;  ///< Healthy per-iteration compute.
  core::Bytes comm_bytes = 32 * 1024 * 1024;  ///< Per ring QP per iteration.
  core::Seconds qp_sample_interval = core::msec(2.0);
  /// Communication exceeding this multiple of the expected time is a
  /// hang (the job's collective timeout).
  double hang_timeout_factor = 50.0;
  /// §5 PCIe incident: physical-layer PCIe monitoring was added only
  /// after the first occurrence; before that the root cause is invisible.
  bool pcie_monitoring = true;
  RecoveryConfig recovery;
  /// Ambient trace key identifying this job in a campaign-wide flight
  /// recording (see obs::TraceKeys); purely observational.
  std::int64_t job_id = 0;
  /// Gray-failure mitigation policy (default Off: byte-identical legacy).
  GrayRoutingConfig gray;
};

enum class MitigationAction : std::uint8_t {
  None,            ///< No mitigation ran (recovery disabled).
  RetryBackoff,    ///< Transient fault: wait it out, retry the iteration.
  Reroute,         ///< Network fault: route around the dead link/switch.
  Derate,          ///< Gray fault: reweight WCMP + re-spread ports; the
                   ///< link stays up at reduced weight. Sits between
                   ///< Reroute and IsolateRestart on the severity ladder.
  IsolateRestart,  ///< Host fault: cordon the host, restart from checkpoint.
  Abort,           ///< Budget exhausted; job gives up (legacy behaviour).
};

const char* to_string(MitigationAction a);

/// One mitigation attempt. MTTR decomposes per the paper's pipeline:
/// detect (monitoring latency) + locate (hierarchical analyzer) +
/// recover (backoff / failover / restart-from-checkpoint).
struct MitigationRecord {
  int fault_index = 0;   ///< Index into the injected schedule.
  int at_iteration = 0;  ///< Iteration the failure surfaced in.
  Manifestation observed = Manifestation::FailStop;
  MitigationAction action = MitigationAction::None;
  bool succeeded = false;
  core::Seconds detect_time = 0.0;
  core::Seconds locate_time = 0.0;
  core::Seconds recover_time = 0.0;
  core::Seconds mttr() const { return detect_time + locate_time + recover_time; }
};

struct RunOutcome {
  bool completed = false;
  int stopped_at_iteration = -1;  ///< Iteration of abort/hang; -1 if none.
  std::optional<Manifestation> observed;  ///< Empty for a healthy run.

  // ---- Recovery ledger (zeros when recovery is disabled).
  std::vector<MitigationRecord> mitigations;
  int restarts = 0;  ///< IsolateRestart mitigations taken.
  int retries = 0;   ///< RetryBackoff mitigations taken.
  int reroutes = 0;  ///< Flows moved by in-flight failover.
  int derates = 0;   ///< WCMP Derate mitigations taken (gray routing).
  int gray_isolates = 0;  ///< Binary-isolate cordon/restore events.
  /// Times gray mitigation re-engaged on a link after disengaging (a
  /// cordon after a restore, a derate after a reinstatement). The damped
  /// WCMP mode provably keeps this 0 under adversarial flapping.
  int oscillations = 0;
  int committed_iterations = 0;  ///< Iterations done and checkpoint-safe.
  core::Seconds useful_time = 0.0;  ///< Time in iterations that committed.
  core::Seconds wasted_time = 0.0;  ///< Failed attempts + replayed work.
  core::Seconds downtime = 0.0;     ///< Detect + locate + recover stalls.
  core::Seconds makespan = 0.0;     ///< Wall clock of the whole run.
  /// committed * healthy-iteration-time / makespan: the fraction of wall
  /// clock converted into training progress (1.0 = no faults, no noise).
  double goodput = 0.0;
};

/// Host config fingerprints for the offline config-verify tool; the
/// HostEnvConfig fault plants an inconsistency.
struct HostConfig {
  std::string nccl_version = "2.21.5";
  std::string driver_version = "535.161.08";
  bool pfc_enabled = true;
  int dcqcn_k = 55;
  bool operator==(const HostConfig&) const = default;
};

class JobEngine {
 public:
  /// `hosts` are the fabric host nodes backing ranks 0..cfg.hosts-1 (the
  /// placement decision is the caller's). A fleet segment may resume
  /// from `start_iteration` (must be a checkpoint multiple). Throws
  /// std::invalid_argument when cfg.recovery is enabled and invalid (see
  /// validate_recovery).
  JobEngine(topo::Fabric& fabric, net::FluidSim& sim, JobConfig cfg,
            std::uint64_t seed, std::vector<topo::NodeId> hosts,
            int start_iteration = 0);
  ~JobEngine();
  JobEngine(const JobEngine&) = delete;
  JobEngine& operator=(const JobEngine&) = delete;

  // ---- Fault injection (before start()).
  void inject(const FaultSpec& fault);
  /// Injects a whole schedule. Schedules containing gray faults are
  /// additionally checked with validate_schedule (overlapping windows on
  /// one link/host rejected); crisp-only schedules keep the permissive
  /// legacy per-spec validation (cascades on one element are a feature).
  void inject(const FaultSchedule& schedule);
  FaultSpec make_fault(RootCause cause, Manifestation m, int at_iteration);
  FaultSpec make_mid_transfer_tor_death(int at_iteration, double fraction = 0.5);
  /// Builds a gray fault targeted at this job: FlappingLink /
  /// PartialDegrade pick a job-path link `hops_from_src` in (distinct
  /// hops give distinct targets for multi-fault schedules); SlowNic draws
  /// a straggler rank and pins its rail-0 uplink as the telemetry anchor.
  FaultSpec make_gray_fault(GrayKind kind, int at_iteration,
                            int hops_from_src = 2);

  // ---- Drive protocol. start() runs until the first suspension. While
  // !done(), resume() continues execution; the owning runtime resumes only
  // when no other tenant of the sim wakes before wake_time(), and the
  // engine then advances the sim to it itself.
  void start();
  bool started() const { return started_; }
  bool done() const { return done_; }
  core::Seconds wake_time() const { return wake_; }
  /// Parked at an iteration boundary (the owning runtime's interposition
  /// point: safe to deliver boundary faults or interrupt with zero
  /// attempt in flight).
  bool at_boundary() const { return at_boundary_; }
  void resume();

  const RunOutcome& outcome() const { return out_; }

  // ---- Fleet hooks.
  /// Iteration the engine is currently executing (or about to).
  int current_iteration() const { return iter_; }
  /// Last durable checkpoint at or below the current iteration.
  int checkpoint_iteration() const;
  /// Rank of a fabric host node within this job, or -1.
  int rank_of_host(topo::NodeId host) const;
  /// True when any of this wave's flows still holds fabric bandwidth.
  bool comm_in_flight() const;
  /// True when any live (or, idle, predicted ring) path crosses `links`.
  bool crosses_any(std::span<const topo::LinkId> links) const;
  bool owns_flow(net::FlowId id) const;
  /// Injects an already-active fault mid-run (a fleet-level fault whose
  /// blast radius includes this job): emits the injection telemetry and
  /// applies host-side effects (a host dying mid-collective aborts its
  /// flows). Network effects (link down/degrade) are the caller's.
  /// Returns the engine-local fault index for ledger attribution.
  int deliver_fault(FaultSpec spec);
  /// Credits a fleet-level in-flight failover to this job's ledger (the
  /// per-job half of the global reroute_flows the fleet ran): bumps
  /// reroutes, records the Reroute mitigation, marks the fault handled.
  void note_inflight_reroute(int fault_index, int moved, bool all_moved);
  /// Stops the run mid-flight (preemption / elastic transition): aborts
  /// this wave's flows, charges the incomplete attempt to wasted time,
  /// and finalizes the ledger. done() becomes true.
  void interrupt();
  /// Moves committed-but-uncheckpointed iterations from useful to wasted
  /// (the work a new segment will replay) and re-finalizes. Valid once
  /// done. Returns the checkpoint iteration to resume from; `moved`
  /// (optional) receives the useful seconds charged.
  int rewind_to_checkpoint(core::Seconds* moved = nullptr);
  const FaultSpec& fault_spec(int index) const { return faults_[static_cast<std::size_t>(index)].spec; }
  /// Simulated time the fault actually struck (applied), or -1 before.
  /// Campaigns compute detection lead times against this.
  core::Seconds fault_applied_time(int index) const {
    return faults_[static_cast<std::size_t>(index)].applied_at;
  }
  /// The WCMP health tracker (Wcmp mode after start()); nullptr otherwise.
  const net::WcmpController* wcmp() const { return wcmp_.get(); }
  /// Fabric links this engine took down (Reroute mitigations); the owner
  /// restores them when the job leaves the fabric.
  const std::vector<topo::LinkId>& downed_links() const { return downed_links_; }
  void restore_downed_links();

  // ---- Accessors (forwarded by ClusterRuntime).
  const JobConfig& config() const { return cfg_; }
  const std::vector<topo::NodeId>& hosts() const { return hosts_; }
  TelemetryStore& store() { return store_; }
  const TelemetryStore& store() const { return store_; }
  const std::vector<HostConfig>& host_configs() const { return host_configs_; }
  core::Seconds expected_compute() const { return cfg_.compute_time; }
  core::Seconds expected_comm() const;
  core::Seconds healthy_iteration() const { return cfg_.compute_time + expected_comm(); }

  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  void set_metrics(obs::Metrics* metrics) { metrics_ = metrics; }
  void set_telemetry_faults(TelemetryFaultModel* model) { degrade_ = model; }
  TelemetryFaultModel* telemetry_faults() const { return degrade_; }
  /// Subscribes the streaming diagnosis service at this engine's store
  /// (post-degrade: the analyzer sees exactly what the store accepted)
  /// and feeds it completed mitigations. nullptr detaches/finalizes.
  /// The analyzer must outlive the engine or be detached first.
  void set_stream_analyzer(StreamAnalyzer* stream);
  StreamAnalyzer* stream_analyzer() const { return stream_; }
  /// Lands held-back (reordered) collector batches after the run ends.
  void flush_telemetry();

 private:
  /// Runtime state of one scheduled fault.
  struct FaultRt {
    FaultSpec spec;
    int index = 0;         ///< Position in the engine's fault list.
    bool applied = false;  ///< Syslog emitted / network effect active.
    bool healed = false;   ///< Self-repaired or healed by a mitigation.
    bool mitigated = false;  ///< A mitigation has dealt with it.
    int active_iters = 0;  ///< Iteration attempts survived while active.
    int retries = 0;       ///< RetryBackoff attempts spent on it.
    core::Seconds applied_at = -1.0;  ///< Sim time the fault struck.
    /// Gray faults: the fabric links this fault degrades (the target
    /// link, or a SlowNic straggler's uplinks). Seeded at activation.
    std::vector<topo::LinkId> gray_links;
    bool gray_down_phase = false;  ///< FlappingLink: currently degraded.
    int gray_degraded_ticks = 0;   ///< Consecutive degraded control ticks.
    bool resolved() const { return healed || mitigated; }
  };

  struct RunTask {
    struct promise_type {
      JobEngine* engine = nullptr;
      RunTask get_return_object() {
        return RunTask{std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_always final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception();
    };
    std::coroutine_handle<promise_type> handle;
  };

  /// co_await sim_until(t): parks until the owning runtime resumes the
  /// engine at wake time t, then advances the shared sim to t itself. A t
  /// the sim has already reached runs on without parking.
  struct SimUntil {
    JobEngine* e;
    core::Seconds t;
    bool await_ready() const { return t <= e->sim_->now(); }
    void await_suspend(std::coroutine_handle<>) { e->wake_ = t; }
    void await_resume() { e->sim_->run(t); }
  };
  SimUntil sim_until(core::Seconds t) { return SimUntil{this, t}; }

  /// co_await boundary(): zero-advance park at the top of every
  /// iteration, the owning runtime's interposition point.
  struct Boundary {
    JobEngine* e;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<>) {
      e->wake_ = e->sim_->now();
      e->at_boundary_ = true;
    }
    void await_resume() { e->at_boundary_ = false; }
  };
  Boundary boundary() { return Boundary{this}; }

  RunTask run_co();

  void emit_injection_syslog(const FaultSpec& f, core::Seconds t);
  void apply_network_fault(const FaultSpec& f);
  void fail_links(const FaultSpec& f);
  void heal_fault(FaultRt& fr);
  void activate_gray(FaultRt& fr);
  void tick_gray_phases();
  /// Links the gray controller watches this tick (live flow paths + every
  /// active gray fault's links) with their observed capacity fractions.
  std::vector<std::pair<topo::LinkId, double>> gray_observations() const;
  /// Ledger attribution for a gray routing event on `link`.
  int gray_fault_index_for(topo::LinkId link) const;
  topo::LinkId pick_job_path_link(int hops_from_src) const;
  core::Seconds analyzer_locate_time() const;
  template <typename T>
  void ingest(T rec);

  void finalize_outcome();
  void trace_injection(const FaultRt& fr, core::Seconds t);
  void trace_mitigation(const MitigationRecord& rec, core::Seconds t0);
  FaultRt* responsible();
  /// First half of the old mitigate(): everything up to (not including)
  /// the MTTR stall. true -> the caller must wait pending_rec_.mttr()
  /// of simulated time and then call finish_mitigation(); false -> the
  /// job aborts (budget exhausted / recovery disabled).
  bool begin_mitigation(FaultRt* fr, Manifestation observed,
                        core::Seconds attempt_wall);
  void finish_mitigation();
  void strike_fault(FaultRt& fr);
  net::FlowSpec ring_spec(int rank) const;

  topo::Fabric& fabric_;
  net::FluidSim* sim_;
  JobConfig cfg_;
  core::Rng rng_;
  core::Rng jitter_rng_;  ///< Retry-backoff jitter only.
  TelemetryStore store_;
  std::vector<topo::NodeId> hosts_;
  std::vector<HostConfig> host_configs_;
  /// Deque: deliver_fault appends mid-run while the parked coroutine
  /// frame holds FaultRt pointers, so references must stay stable.
  std::deque<FaultRt> faults_;
  std::vector<double> host_slow_;  ///< Compute slow-down factor per host.
  std::vector<topo::LinkId> downed_links_;  ///< Fabric state to restore.
  // ---- Gray routing state (all empty/null with GrayRoutingConfig off).
  std::unique_ptr<net::WcmpController> wcmp_;  ///< Wcmp mode only.
  std::vector<std::uint16_t> ring_ports_;  ///< Per-rank port overrides (0 = default).
  /// BinaryIsolate mode: links this engine has cordoned for gray
  /// degradation, with per-link cordon counts (oscillation basis).
  std::vector<topo::LinkId> gray_cordoned_;
  std::unordered_map<topo::LinkId, int> gray_cordon_count_;
  int gray_binary_osc_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  TelemetryFaultModel* degrade_ = nullptr;
  StreamAnalyzer* stream_ = nullptr;

  // ---- Run state (members so fleet hooks can read/adjust them while
  // the coroutine is parked).
  int start_iteration_ = 0;
  core::Seconds start_time_ = 0.0;
  RunOutcome out_;
  core::Seconds now_ = 0.0;
  int iter_ = 0;
  core::Seconds iter_start_ = 0.0;
  std::vector<core::Seconds> iter_useful_;
  std::vector<net::FlowId> flows_;
  /// Counter-pass scratch: sampled links, and the active crisp faults'
  /// target links (both sorted).
  std::vector<topo::LinkId> counter_links_;
  std::vector<topo::LinkId> mod_links_;
  core::Seconds hang_deadline_ = 0.0;
  core::Seconds healthy_iter_ = 0.0;
  MitigationRecord pending_rec_;
  bool in_attempt_ = false;  ///< Iteration wall clock accruing (not yet charged).

  std::coroutine_handle<RunTask::promise_type> handle_;
  std::exception_ptr pending_exception_;
  bool started_ = false;
  bool done_ = false;
  bool at_boundary_ = false;
  core::Seconds wake_ = 0.0;
};

}  // namespace astral::monitor
