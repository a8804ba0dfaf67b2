// Flow-level fluid network simulator.
//
// Rates follow max-min fairness (progressive filling), the fluid limit of
// DCQCN-style congestion control on a lossless fabric. The simulator is
// event-driven: rates are piecewise constant between flow arrivals and
// completions, so byte counters integrate exactly. Congestion signals
// integrate the same way:
//   * a link whose offered demand exceeds capacity accrues ECN marks at a
//     rate proportional to the overload (RED-on-ECN fluid model);
//   * when the overload passes the PFC threshold, pause frames accrue
//     against the links feeding the hotspot (congestion spreading, as in
//     the paper's PCIe/PFC-storm incident);
//   * per-hop latency = base switching delay + a queue term that grows
//     with overload, feeding the INT pingmesh monitors (Fig. 9c).
//
// Rates come from one solver, net::ShardSolver (shard_solver.h), which
// keeps the active set split into independent bottleneck components
// across events and progressive-fills each with a lazy min-heap. Around
// it the simulator is incremental and allocation-free in steady state:
// every membership or capacity change (arrival, completion, abort,
// reroute, degradation) is reported to the solver, which alone records
// which flows cross which link, so a solve re-solves only the components
// the change touched. The solver's dirty state also says when a solve is
// due: an arrival wave whose links carry no other flows is solved on its
// own (an island), and a completion wave that shared no link with the
// survivors needs no solve at all. See DESIGN.md §6 and §11;
// src/net/maxmin_ref.{h,cpp} retains the naive solver as the equivalence
// oracle.
//
// The drain is superposition-exact: an event costs the shards it touches,
// and a flow's finish and a link's counters depend only on the traffic
// that shares its shard (and, for PFC, its switches). A flow keeps its
// bytes left at one instant, `since`, and its rate since then; the shard
// publish re-bases it only when its rate bits change. Each shard keeps
// the earliest finish of its flows in a heap, so the next completion is
// the heap top, and completions batch within a shard. Link statistics
// fold at a row's own change points (its shard republishes different
// values, it retires, its capacity changes, reset_stats): each link that
// carries flows has a row holding what its shard's solve published, and
// ECN/PFC counts are the ceiling of a cumulative mark mass. link_stats()
// adds what a row has pending without folding it, so reading never
// moves a later bit.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/units.h"
#include "net/flow.h"
#include "net/router.h"
#include "topo/fabric.h"

namespace astral::obs {
class Tracer;
class Metrics;
class Histogram;
}  // namespace astral::obs

namespace astral::net {

class ShardSolver;

/// Sentinel deadline meaning "run until the workload drains".
inline constexpr core::Seconds kRunForever = 1e18;

/// True when `until` is an actual deadline rather than kRunForever.
constexpr bool is_bounded(core::Seconds until) { return until < kRunForever; }

struct FluidSimConfig {
  double ecn_util_threshold = 0.95;  ///< Overload where marking starts.
  double ecn_marks_per_flow_sec = 2e4;  ///< Marking intensity scale.
  double pfc_overload = 1.6;  ///< Demand/capacity ratio triggering PFC.
  double pfc_pauses_per_sec = 5e3;
  core::Seconds base_hop_latency = core::usec(0.6);
  core::Seconds max_queue_delay = core::usec(300.0);
  /// Completions within this window collapse into one rate update;
  /// symmetric collectives otherwise trigger quadratic recomputation.
  core::Seconds completion_epsilon = 1e-9;
  /// Worker lanes for shard solves (1 = inline, no threads spawned).
  /// Rates are bit-identical across any thread count.
  int solver_threads = 1;
  /// Emit per-shard solve counters and a solve-time histogram for full
  /// solves when a metrics registry is attached. Off by default, which
  /// keeps wall-clock shard timings out of metric snapshots.
  bool shard_telemetry = false;
};

class FluidSim {
 public:
  using Config = FluidSimConfig;

  /// The simulator reads topology routing and link capacities; the fabric
  /// must outlive the simulator. Link up/down changes through the fabric
  /// are honored at the next flow admission. Link *capacities* are cached
  /// at construction (scaled by degrade_link); mutate capacity through
  /// degrade_link, not the fabric.
  FluidSim(topo::Fabric& fabric, Config cfg = {});
  ~FluidSim();

  /// Injects a flow; routing happens immediately (paths are pinned at QP
  /// creation, matching per-flow ECMP). Returns the flow id; the flow's
  /// `admitted` flag is false when no fabric route exists. The arrival
  /// takes its (start, id) place in the queue by binary search: an append
  /// when it starts no earlier than every queued flow.
  FlowId inject(const FlowSpec& spec);

  /// Injects a whole wave in one call: per-spec routing, then the wave
  /// joins the arrival queue in one step, appended when it is in start
  /// order after the queued tail, else sorted and merged. Collectives emit
  /// their same-start waves through this so admission and the first solve
  /// are batched (the arrival-side mirror of completion batching).
  std::vector<FlowId> inject_batch(std::span<const FlowSpec> specs);

  /// Predicts the path a spec would take without injecting it — the
  /// controller's "hash simulator" entry point.
  std::optional<std::vector<topo::LinkId>> predict_path(const FlowSpec& spec) const;

  /// Runs until all injected flows complete (or `until`, if given).
  void run(core::Seconds until = kRunForever);

  /// Runs until every flow in `watch` has completed (or `until`). Lets a
  /// measurement finish while long-lived background flows keep running.
  void run_watch(std::span<const FlowId> watch, core::Seconds until = kRunForever);

  /// True when no active or pending flows remain.
  bool idle() const { return live_ == 0 && !has_pending(); }

  core::Seconds now() const { return now_; }
  const FlowState& flow(FlowId id) const { return flows_[id]; }
  std::size_t flow_count() const { return flows_.size(); }

  /// Flows currently holding fabric bandwidth (admitted, not finished),
  /// in admission order. Drops the slots of flows that left since the
  /// last call first (the event loop removes them lazily).
  std::span<const FlowId> active_flows() const;

  /// Current fluid rate of a flow (0 once finished) — the transport-layer
  /// ms-level QP rate monitor samples this.
  double current_rate(FlowId id) const { return drain_[id].rate; }

  /// Bytes a flow has left to send as of now(): its size until admitted,
  /// 0 once finished; an aborted flow keeps what it had left.
  double remaining(FlowId id) const { return std::max(0.0, left_at(drain_[id], now_)); }

  /// A link's counters as of now(): what its row has folded plus what it
  /// has pending. Reading folds nothing, so it changes no later value.
  /// Bytes, busy and util time integrate the published rate over the
  /// spans between the row's change points; ECN marks and PFC pauses are
  /// the ceiling of a mark mass integrated the same way (see LiveLink).
  LinkStats link_stats(topo::LinkId id) const;

  /// Every link whose counters may be nonzero: the links that carried
  /// flows at some point since the last reset_stats() (or since
  /// construction). An unordered superset of the links with nonzero
  /// LinkStats; every link outside it reads LinkStats{} exactly. Counter
  /// collectors walk this instead of the whole fabric.
  std::span<const topo::LinkId> touched_links() const { return touched_; }

  /// Instantaneous per-hop forwarding latency (INT view).
  core::Seconds hop_latency(topo::LinkId id) const;

  /// Capacity after degradations, bits/sec (what the solver allocates).
  double effective_capacity(topo::LinkId id) const { return effcap_[id]; }

  /// Rate allocated on a link by the current solution, bits/sec: the sum
  /// of its flows' rates, 0 when no active flow crosses it.
  double link_rate(topo::LinkId id) const {
    const std::uint32_t pos = live_pos_[id];
    return pos == kNotLive ? 0.0 : live_links_[pos].rate;
  }

  /// Multiplies a link's effective capacity by `factor` (< 1 models a
  /// degraded optical module / broken PCIe lane). factor <= 0 blocks the
  /// link for new rate allocation while keeping it routable, modelling a
  /// silent blackhole. The link's row folds what it accrued at the old
  /// capacity first; rows the re-solve changes fold at their publish.
  void degrade_link(topo::LinkId id, double factor);

  /// Marks a link up or down in both the fabric (so routing skips it
  /// from now on) and the solver (a down link allocates zero). Bringing
  /// the link back up restores its degraded capacity, not full capacity.
  void set_link_up(topo::LinkId id, bool up);

  /// What reroute_flows() did to the live flow set.
  struct RerouteReport {
    std::vector<FlowId> rerouted;  ///< Moved onto a surviving path.
    std::vector<FlowId> stranded;  ///< No surviving path; stalled at rate 0.
    bool all_moved() const { return stranded.empty(); }
  };

  /// In-flight failover (the router's P3 path): every live or pending
  /// flow whose pinned path crosses a dead link (down, or zero effective
  /// capacity) is re-resolved through the router — which now picks the
  /// surviving dual-ToR side or an alternate ECMP hop — and rates are
  /// re-solved. Flows with no surviving route are stripped of their path
  /// and stall at rate zero until aborted or the fabric heals.
  RerouteReport reroute_flows();

  /// Aborts a live or pending flow: it releases fabric bandwidth
  /// immediately and never finishes (`aborted` set, finish stays < 0).
  /// Models the sending process dying — fail-stop hosts abort their
  /// flows rather than leaving them hanging in the solver.
  void abort_flow(FlowId id);

  /// Forces a full max-min solve of every shard now, changed or not. The
  /// event loop schedules solves itself; this exists for benchmarks and
  /// tests that measure or poke the solver directly.
  void resolve_rates();

  /// Frees the paths of flows finished or aborted since the last call but
  /// keeps counters; long campaigns call this between iterations to bound
  /// memory. Costs O(flows retired since the last call).
  void recycle_finished();

  /// Resets ECN/PFC/byte counters (e.g. between controller rounds). Peak
  /// overloads restart at zero; the next full solve raises every loaded
  /// link's peak to its current overload. Costs O(touched links): only
  /// links that carried flows since the last reset can be nonzero. The
  /// touched list then restarts as the links carrying flows now, since
  /// those keep accumulating, and their rows restart their fold point at
  /// now.
  void reset_stats();

  /// Total bytes still in flight as of now().
  core::Bytes backlog() const;

  const topo::Fabric& fabric() const { return fabric_; }

  /// Attaches a flight recorder (nullptr detaches). When attached, flow
  /// completion/abort spans, reroute/strand instants, and per-link
  /// utilization samples are recorded; flow events inherit the tracer's
  /// ambient job/collective keys. Every hook is one branch when detached.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Attaches a metrics registry (nullptr detaches): solver-step timing
  /// histogram ("fluidsim.solve_us") plus solve/flow-outcome counters.
  void set_metrics(obs::Metrics* metrics);
  obs::Metrics* metrics() const { return metrics_; }

  /// Shards in the solver's partition: the connected bottleneck
  /// components of the active paths, as of the last solve (0 when idle).
  std::size_t solver_shard_count() const;

  /// Test hook: fast-forwards the solver's shard-build epoch, the one
  /// epoch counter of the simulator, so tests can exercise its wraparound
  /// reset without 2^64 builds.
  void debug_set_build_epoch(std::uint64_t value);

 private:
  friend class ShardSolver;
  static constexpr std::uint32_t kNotLive = static_cast<std::uint32_t>(-1);

  /// A flow's drain state, indexed by FlowId: bytes left at `since`, and
  /// the rate it has run at since then. The shard publish re-bases it
  /// only when its rate bits change, so unrelated events leave it alone.
  struct Drain {
    double remaining = 0.0;     ///< Bytes left at `since`.
    double rate = 0.0;          ///< Fluid rate since `since`, bits/sec.
    core::Seconds since = 0.0;  ///< When `remaining` was last brought up to date.
  };

  /// Bytes a flow has left at time t, at its current rate.
  static double left_at(const Drain& d, core::Seconds t) {
    return d.remaining - d.rate * (t - d.since) / 8.0;
  }
  /// When a flow finishes at its current rate; infinity while it is
  /// stalled with bytes left.
  static core::Seconds finish_of(const Drain& d);

  /// A pending arrival. The start time rides along, so the queue orders
  /// and admits entries without reading flows_.
  struct Pending {
    core::Seconds start;
    FlowId id;
  };

  /// One link that carries flows, as the last solve of its shard
  /// published it: the one per-link view of the current solution
  /// (link_rate, hop_latency and PFC read it too), and the link's lazy
  /// counter state. Between two folds of a row its values are constant,
  /// and over dt = now - since it accrues:
  ///   * bytes, busy and util time: rate*dt/8, dt while rate > 0, util*dt;
  ///   * ECN mark mass: dt * ecn_marks_per_flow_sec * ecn_excess;
  ///   * PFC mark mass, as an upstream port of switch `dst` while
  ///     rate > 0: dt * pfc_pauses_per_sec * pfc_sum_[dst], the summed
  ///     PFC excess of the rows leaving dst.
  /// A link's ECN and PFC counts are the ceilings of its cumulative mark
  /// masses. A row folds (adds what it accrued and moves `since` to now)
  /// before any of its values changes: at a publish that changes them,
  /// at retire_live and refresh_util, and before pfc_sum_[dst] changes.
  /// reset_stats folds every row.
  struct LiveLink {
    double rate = 0.0;        ///< Allocated rate sum, bits/sec.
    double overload = 0.0;    ///< Offered demand / effective capacity.
    double util = 0.0;        ///< min(1, rate/effcap); 0 when effcap <= 0.
    double ecn_excess = 0.0;  ///< overload - ecn_util_threshold, when above.
    double pfc_excess = 0.0;  ///< overload - pfc_overload, when above: pauses upstream.
    core::Seconds since = 0.0;  ///< Time of the last fold.
    topo::LinkId link = topo::kInvalidLink;
    topo::NodeId dst = topo::kInvalidNode;  ///< The switch whose congestion pauses it.
    bool loaded = false;       ///< Rate or demand > 0: may mark; traced util (else 0).
    bool republished = false;  ///< Changed by the running solve; see settle_links.
    bool pfc_changed = false;  ///< Its PFC excess changed in the running solve.
  };

  /// A link's cumulative ECN and PFC mark masses since the last reset.
  struct MarkMass {
    double ecn = 0.0;
    double pfc = 0.0;
  };

  /// Routes a spec and adds its flow; the caller queues its arrival.
  FlowId inject_impl(const FlowSpec& spec);
  /// True while some arrival is queued.
  bool has_pending() const { return pending_head_ < pending_.size(); }
  /// Drops the admitted prefix of the arrival queue once it passes half
  /// the vector (or is all of it): O(1) amortized per admission.
  void drop_admitted();
  void run_impl(core::Seconds until, std::span<const FlowId> watch);
  bool all_finished(std::span<const FlowId> watch) const;
  /// Moves a queued flow into the active set and stamps its admission
  /// rank.
  void admit(FlowId id);
  /// True while a flow holds bandwidth: admitted, not finished or aborted.
  bool is_live(FlowId id) const { return flows_[id].finish < 0 && !flows_[id].aborted; }
  /// Counts `n` flows that finished or aborted out of the active set;
  /// their slots are dropped lazily.
  void leave_active(std::size_t n);
  /// Drops the slots of flows that left, keeping the order of the rest.
  void compact_active() const;
  /// Completes the flows of every shard whose earliest finish is due.
  void complete_due();
  /// A full solve: re-solves the shards that changed since the last
  /// solve, or every shard when `every_shard` (resolve_rates).
  void solve_full(bool every_shard = false);
  /// Runs the full solve a run deferred, before run_impl returns with
  /// flows still active, so rates sampled between runs are current.
  void finish_pending_solve();
  /// True when rates read now are current: no solve is due while flows
  /// are live. Asserted wherever control returns to the caller.
  bool rates_current() const;
  /// Appends a link to live_links_ unless it is already there, and
  /// touches it. A new row accrues from now.
  void add_live(topo::LinkId l);
  /// Appends a link to touched_ unless it is already there.
  void touch(topo::LinkId l);
  /// Folds a link's row and removes it from live_links_ (the last row
  /// takes its slot), updating the PFC sum of its source switch.
  void retire_live(topo::LinkId l);
  /// Moves a flow to `rate` when the rate's bits differ, re-basing its
  /// bytes left to now first, and says whether it did. Touches only that
  /// flow, so shards publish concurrently.
  bool set_rate(FlowId id, double rate);
  /// Writes a live link's row from its shard's solution when any value's
  /// bits differ, folding it first. Touches only that row and its link's
  /// counters, so shards publish concurrently; settle_links finishes the
  /// rows the solve changed.
  void publish_link(topo::LinkId l, double rate, double overload, double demand);
  /// Serial follow-up of a publish: for each row the solve changed, moves
  /// the PFC sum of its source switch if its PFC excess changed, and
  /// emits its traced util sample.
  void settle_links(std::span<const topo::LinkId> links);
  /// Folds the live in-links of a switch and recomputes its PFC sum from
  /// the rows leaving it, in out-link order.
  void resum_pfc(topo::NodeId sw);
  /// Folds a live link's row and recomputes its util factor after
  /// effcap_ changed.
  void refresh_util(topo::LinkId l);
  /// Adds what a row has accrued since its fold point to `st` and `m`.
  void add_pending(const LiveLink& r, LinkStats& st, MarkMass& m) const;
  /// Adds a row's pending counters to its link and moves its fold point
  /// to now.
  void fold(LiveLink& r);
  /// Emits a Link-track util sample of a row at now (0 when `level` is
  /// false), when a tracer is attached.
  void trace_util(const LiveLink& r, bool level);

  topo::Fabric& fabric_;
  Router router_;
  Config cfg_;
  core::Seconds now_ = 0.0;

  std::vector<FlowState> flows_;
  std::vector<Drain> drain_;  ///< Parallel to flows_.
  /// The active set in admission order, the solver's canonical order.
  /// Flows that finish or abort keep their slot until compact_active
  /// drops it (once they outnumber the live ones, or on active_flows()),
  /// so removal never reorders the survivors. It grows only at its end,
  /// so it is always in rank_ order.
  mutable std::vector<FlowId> active_;
  std::size_t live_ = 0;  ///< Live flows in active_.
  /// Per flow (parallel to flows_): its admission rank, the order of its
  /// admission among all flows. A flow is admitted at most once, so the
  /// ranks of active_ ascend, and the solver merges per-shard flow lists
  /// by rank into active-set order without scanning active_.
  std::vector<std::uint32_t> rank_;
  std::uint32_t next_rank_ = 0;
  /// Queued arrivals, pending_[pending_head_..], sorted by (start, id):
  /// admission takes the head, so flows that start together are admitted
  /// in injection order whatever else is queued. The admitted prefix
  /// before pending_head_ is dropped by drop_admitted.
  std::vector<Pending> pending_;
  std::size_t pending_head_ = 0;

  /// Folded counters; ECN and PFC counts are read from mass_. Only links
  /// in touched_ may be nonzero: every stats writer writes live links
  /// only (folds, the shard publish of peaks and the solve_full peak
  /// refresh), and a link enters touched_ whenever it enters live_links_.
  std::vector<LinkStats> stats_;
  std::vector<MarkMass> mass_;  ///< Folded mark masses, per link.
  std::vector<topo::LinkId> touched_;
  std::vector<std::uint8_t> touched_flag_;  ///< 1 iff the link is in touched_.
  std::vector<double> degrade_;
  std::vector<double> effcap_;  ///< capacity * degrade, cached.

  // --- incremental solver state ---
  /// Links with published state: after each solve, exactly the links
  /// that carry flows. New links are appended (all zero until their
  /// shard publishes); a link whose last flow left is swap-removed, so
  /// the order is only stable until then. A link outside the list reads
  /// 0 rate and base hop latency.
  std::vector<LiveLink> live_links_;
  std::vector<std::uint32_t> live_pos_;  ///< Index in live_links_, or kNotLive.
  /// Per node: the summed PFC excess of the live rows leaving it, which
  /// scales the PFC mark mass of each of its in-links with rate > 0.
  std::vector<double> pfc_sum_;
  std::vector<FlowId> completed_batch_;  ///< Completion staging (reused).
  std::vector<FlowId> retired_;  ///< Finished or aborted, path not yet freed.
  bool peaks_reset_ = false;     ///< reset_stats() ran; no full solve since.
  std::unique_ptr<ShardSolver> shard_;  ///< The max-min solver.

  // --- observability (null = disabled; hooks cost one branch) ---
  obs::Tracer* tracer_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  obs::Histogram* solve_hist_ = nullptr;  ///< Cached "fluidsim.solve_us".
};

}  // namespace astral::net
