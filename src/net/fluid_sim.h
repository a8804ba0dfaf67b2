// Flow-level fluid network simulator.
//
// Rates follow max-min fairness (progressive filling), the fluid limit of
// DCQCN-style congestion control on a lossless fabric. The simulator is
// event-driven: rates are piecewise constant between flow arrivals and
// completions, so byte counters integrate exactly. Congestion signals are
// derived per interval:
//   * a link whose offered demand exceeds capacity accrues ECN marks
//     proportional to the overload (RED-on-ECN fluid model);
//   * when the overload passes the PFC threshold, pause frames are
//     accounted against the links feeding the hotspot (congestion
//     spreading, as in the paper's PCIe/PFC-storm incident);
//   * per-hop latency = base switching delay + a queue term that grows
//     with overload, feeding the INT pingmesh monitors (Fig. 9c).
//
// Rates come from one solver, net::ShardSolver (shard_solver.h), which
// keeps the active set split into independent bottleneck components
// across events and progressive-fills each with a lazy min-heap. Around
// it the simulator is incremental and allocation-free in steady state:
// per-link membership is maintained by delta as flows arrive and finish,
// and every membership or capacity change is reported to the solver, so a
// solve re-solves only the components the change touched. An arrival wave
// whose links carry no other flows is solved on its own (an island), and
// a completion wave that shared no link with the survivors needs no solve
// at all. See DESIGN.md §6 and §11; src/net/maxmin_ref.{h,cpp} retains the
// naive solver as the equivalence oracle.
//
// Each event makes two passes over the active flows, the next-completion
// scan and the drain sweep, both over a 16-byte per-flow {remaining, rate}
// array, and admission pops a heap whose entries carry their start time.
// Link statistics are lazy and exact: each link that carries flows has a
// row holding what its shard's solve published, and the row folds its
// counters into LinkStats only when its own state changes (its shard
// republishes it, it retires, its capacity changes, reset_stats). An
// event only counts its interval; the rows are walked only in the rare
// interval where some row's ECN or PFC increment is not exactly 1, and to
// sample utilization when a tracer is attached. link_stats() adds what a
// row has pending without folding it, so reading never moves a later bit.
#pragma once

#include <array>
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
  /// Emit per-shard solve spans/counters/histogram for full solves when a
  /// tracer or metrics registry is attached. Off by default, which keeps
  /// wall-clock shard timings out of golden traces and metric snapshots.
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
  /// `admitted` flag is false when no fabric route exists.
  FlowId inject(const FlowSpec& spec);

  /// Injects a whole wave in one call: per-spec routing, but a single
  /// heap fix-up instead of one push per flow. Collectives emit their
  /// same-start waves through this so admission and the first solve are
  /// batched (the arrival-side mirror of completion batching).
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
  bool idle() const { return active_.empty() && pending_.empty(); }

  core::Seconds now() const { return now_; }
  const FlowState& flow(FlowId id) const { return flows_[id]; }
  std::size_t flow_count() const { return flows_.size(); }

  /// Flows currently holding fabric bandwidth (admitted, not finished).
  std::span<const FlowId> active_flows() const { return active_; }

  /// Current fluid rate of a flow (0 once finished) — the transport-layer
  /// ms-level QP rate monitor samples this.
  double current_rate(FlowId id) const { return drain_[id].rate; }

  /// Bytes a flow has left to send: its size until admitted, 0 once
  /// finished; an aborted flow keeps what it had left.
  double remaining(FlowId id) const { return drain_[id].remaining; }

  /// A link's counters as of now(): what its row has folded plus what it
  /// has pending. Reading folds nothing, so it changes no later value.
  /// ECN marks and PFC pauses are exact sums of the per-interval counts
  /// ceil(dt * rate * excess); bytes, busy and util time are integrated
  /// over the spans between the row's folds, so their last bits depend on
  /// where those fall.
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
  /// silent blackhole. Any elapsed interval is accumulated against the
  /// pre-degradation overloads before rates change.
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

  /// Total bytes still in flight.
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

  /// Test hook: fast-forwards both internal epoch counters (island-mark,
  /// shard-build) so tests can exercise the wraparound reset paths
  /// without 2^64 solves.
  void debug_set_epoch_counters(std::uint64_t value);

 private:
  friend class ShardSolver;
  static constexpr std::uint32_t kNotLive = static_cast<std::uint32_t>(-1);

  /// An entry in a link's persistent member list: which flow crosses the
  /// link, and at which hop of its path (so swap-removal can fix the
  /// displaced flow's member_pos in O(1)).
  struct Member {
    FlowId flow;
    std::uint32_t hop;
  };

  /// What the per-event scans read of one flow, indexed by FlowId.
  struct Drain {
    double remaining = 0.0;  ///< Bytes left; double for exact fluid math.
    double rate = 0.0;       ///< Current fluid rate, bits/sec.
  };

  /// A pending arrival. The start time rides along, so the heap orders
  /// and pops entries without reading flows_.
  struct Pending {
    core::Seconds start;
    FlowId id;
  };

  /// Rows with a positive excess of one kind (ECN or PFC), counted per
  /// key. A row with excess x > 0 gains ceil(k*x) marks in an interval
  /// whose factor is k (dt times the configured rate), and the smallest
  /// key tells accumulate_until when that is exactly 1 for every such
  /// row, so the interval needs no per-row work.
  class MarkKeys {
   public:
    static constexpr std::uint8_t kNone = 0xff;  ///< The key of x <= 0.
    /// x's key: -ilogb(x) - 2 clamped to [-kBias, kCount - kBias) and
    /// stored offset by kBias; the lowest key when x < 2^-900 or x is
    /// huge, kNone when x <= 0. Then 2^key <= 1/(2x), so a factor
    /// k < 2^key gives k*x < 1/2.
    static std::uint8_t key_of(double x);
    /// Moves a row's registration from `key` to `to` (either may be kNone).
    void move(std::uint8_t& key, std::uint8_t to);
    /// False when every registered row gains exactly 1 at factor k: k is
    /// at least 2^-170 (with x >= 2^-900, k*x cannot underflow to 0) and
    /// below 2^(smallest key). A row at the lowest key takes the pass in
    /// every interval.
    bool needs_pass(double k) const { return total_ > 0 && !(k >= 0x1p-170 && k < limit_); }

   private:
    static constexpr int kCount = 64;
    static constexpr int kBias = 32;
    std::array<std::uint32_t, kCount> rows_{};
    std::uint32_t total_ = 0;
    int min_ = kCount;    ///< Smallest stored key with rows; kCount when none.
    double limit_ = 0.0;  ///< 2^(min_ - kBias); 0 when min_ is the lowest key.
  };

  /// One link that carries flows, as the last solve of its shard
  /// published it: the one per-link view of the current solution
  /// (link_rate, hop_latency and PFC read it too), and the link's lazy
  /// counter state. Between two folds of a row its published values are
  /// constant, and its counters accrue from its fold point on:
  ///   * bytes, busy and util time: rate*dt/8, dt while rate > 0, and
  ///     util*dt, over dt = accumulated_until_ - since;
  ///   * ECN marks: one per interval counted since since_interval, while
  ///     ecn_excess > 0;
  ///   * PFC pauses, as the upstream port of switch `dst` while rate > 0:
  ///     pfc_rows_[dst] per interval counted since since_interval, one
  ///     for each row leaving dst with a positive PFC excess.
  /// An interval in which some increment is not exactly 1 adds the
  /// difference to stats_ in accumulate_until's exact pass. A fold adds
  /// the accrued amounts to stats_ and moves the fold point to now; a row
  /// folds before any of its values changes (publish_link, retire_live,
  /// refresh_util) and before pfc_rows_[dst] changes (register_pfc), and
  /// reset_stats restarts every fold point.
  struct LiveLink {
    double rate = 0.0;        ///< Allocated rate sum, bits/sec.
    double overload = 0.0;    ///< Offered demand / effective capacity.
    double util = 0.0;        ///< min(1, rate/effcap); 0 when effcap <= 0.
    double ecn_excess = 0.0;  ///< overload - ecn_util_threshold, when above.
    double pfc_excess = 0.0;  ///< overload - pfc_overload, when above: pauses upstream.
    core::Seconds since = 0.0;         ///< Time of the last fold.
    std::uint64_t since_interval = 0;  ///< intervals_ at the last fold.
    topo::LinkId link = topo::kInvalidLink;
    topo::NodeId dst = topo::kInvalidNode;  ///< The switch whose congestion pauses it.
    std::uint8_t ecn_key = MarkKeys::kNone;  ///< Key of ecn_excess, set at publish.
    std::uint8_t pfc_key = MarkKeys::kNone;  ///< Key of pfc_excess, set at publish.
    std::uint8_t ecn_registered = MarkKeys::kNone;  ///< Key counted in ecn_keys_.
    std::uint8_t pfc_registered = MarkKeys::kNone;  ///< Key counted in pfc_keys_, pfc_rows_.
    bool loaded = false;  ///< Rate or demand > 0: traced as a util sample.
  };

  FlowId inject_impl(const FlowSpec& spec, bool fix_heap);
  void run_impl(core::Seconds until, std::span<const FlowId> watch);
  bool all_finished(std::span<const FlowId> watch) const;
  void admit(FlowId id);
  /// Adds the flow to the member lists of its path and reports it to the
  /// solver; remove_member undoes both.
  void add_member(FlowId id);
  void remove_member(FlowId id);
  /// True when every link the batch touches is used by batch flows only:
  /// the batch forms its own constraint island and the rest of the active
  /// set keeps its water-filling levels. O(1) when the batch is the whole
  /// active set.
  bool batch_is_island(std::span<const FlowId> batch);
  /// A full solve: re-solves the shards that changed since the last
  /// solve, or every shard when `every_shard` (resolve_rates).
  void solve_full(bool every_shard = false);
  /// Runs the full solve a run deferred, before run_impl returns with
  /// flows still active, so rates sampled between runs are current.
  void finish_pending_solve();
  /// Appends a link to live_links_ unless it is already there, and
  /// touches it. A new row accrues from now.
  void add_live(topo::LinkId l);
  /// Appends a link to touched_ unless it is already there.
  void touch(topo::LinkId l);
  /// Folds a link's row, unregisters its keys and removes it from
  /// live_links_; the last row takes its slot.
  void retire_live(topo::LinkId l);
  /// Folds a live link's row and writes it from its shard's solution,
  /// keys included. Touches only that row and its stats, so shards
  /// publish concurrently; rekey_links registers the keys afterwards.
  void publish_link(topo::LinkId l, double rate, double overload, double demand);
  /// Registers the keys of just-published rows in the mark keys and in
  /// pfc_rows_. Serial: PFC bookkeeping crosses shards.
  void rekey_links(std::span<const topo::LinkId> links);
  /// Moves a row's PFC registration to `key`. When the row gains or loses
  /// its PFC excess, the live in-links of its source switch fold before
  /// pfc_rows_ of that switch changes.
  void register_pfc(LiveLink& r, std::uint8_t key);
  /// Folds a live link's row and recomputes its util factor after
  /// effcap_ changed.
  void refresh_util(topo::LinkId l);
  /// Adds what a row has accrued since its fold point to `st`.
  void add_pending(const LiveLink& r, LinkStats& st) const;
  /// Adds a row's pending counters to stats_ and moves its fold point
  /// to now.
  void fold(LiveLink& r);
  /// Counts the interval [accumulated_until_, t]; makes the exact pass
  /// when some row's increment in it may not be 1, and emits traced util
  /// samples.
  void accumulate_until(core::Seconds t);

  topo::Fabric& fabric_;
  Router router_;
  Config cfg_;
  core::Seconds now_ = 0.0;
  core::Seconds accumulated_until_ = 0.0;  ///< Intervals counted up to here.
  std::uint64_t intervals_ = 0;  ///< Intervals of positive length counted.

  std::vector<FlowState> flows_;
  std::vector<Drain> drain_;  ///< Parallel to flows_.
  std::vector<FlowId> active_;
  std::vector<Pending> pending_;  ///< Min-heap by start.

  /// Folded counters. Only links in touched_ may be nonzero: every stats
  /// writer writes live links only (folds, the exact pass, the shard
  /// publish of peaks and the solve_full peak refresh), and a link enters
  /// touched_ whenever it enters live_links_.
  std::vector<LinkStats> stats_;
  std::vector<topo::LinkId> touched_;
  std::vector<std::uint8_t> touched_flag_;  ///< 1 iff the link is in touched_.
  std::vector<double> degrade_;
  std::vector<double> effcap_;  ///< capacity * degrade, cached.

  // --- incremental solver state ---
  std::vector<std::vector<Member>> members_;  ///< Per-link active flows.
  /// Links with published state: after each solve, exactly the links
  /// that carry flows. New links are appended (all zero until their
  /// shard publishes); a link whose last flow left is swap-removed, so
  /// the order is only stable until then (trace export sorts the
  /// per-link samples accumulate_until emits). A link outside the list
  /// reads 0 rate and base hop latency.
  std::vector<LiveLink> live_links_;
  std::vector<std::uint32_t> live_pos_;  ///< Index in live_links_, or kNotLive.
  MarkKeys ecn_keys_;  ///< Rows with a positive ECN excess.
  MarkKeys pfc_keys_;  ///< Rows with a positive PFC excess.
  /// Per node: rows leaving it with a positive PFC excess, which is what
  /// each of its in-links with rate > 0 is paused per interval.
  std::vector<std::uint32_t> pfc_rows_;
  std::uint64_t mark_epoch_counter_ = 0;    ///< For batch_is_island.
  std::vector<std::uint64_t> mark_epoch_;
  std::vector<std::uint32_t> mark_count_;
  std::vector<FlowId> admitted_batch_;   ///< Arrival staging (reused).
  std::vector<FlowId> completed_batch_;  ///< Completion staging (reused).
  std::vector<FlowId> retired_;  ///< Finished or aborted, path not yet freed.
  bool solve_pending_ = false;  ///< Active rates stale; full solve due.
  bool peaks_reset_ = false;    ///< reset_stats() ran; no full solve since.
  std::unique_ptr<ShardSolver> shard_;  ///< The max-min solver.

  // --- observability (null = disabled; hooks cost one branch) ---
  obs::Tracer* tracer_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  obs::Histogram* solve_hist_ = nullptr;  ///< Cached "fluidsim.solve_us".
};

}  // namespace astral::net
