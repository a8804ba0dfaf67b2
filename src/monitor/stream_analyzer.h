// Always-on streaming diagnosis service: the §3.3 hierarchical analysis
// turned into an online pipeline. Instead of re-scanning raw streams
// after a run ends, StreamAnalyzer subscribes at the degrade-hardened
// TelemetryStore ingestion seam (monitor::TelemetrySink) and consumes
// every ACCEPTED record exactly once, maintaining per-Pod / per-tier
// hierarchical rollup monitors — link-utilization and PFC/ECN/MOD
// counters, fault and MTTR histograms, QP-rate EWMAs — that reduce
// upward Pod -> tier -> fabric with bounded memory: every per-record
// update lands in a fixed-size counter, EWMA, or fixed-storage
// obs::Histogram, so the analyzer's footprint plateaus at O(pods +
// registered QPs) no matter how many records stream through.
//
// Diagnosis stays exactly the batch algorithm: online trigger state
// (stall/slow/errCQE/fatal-syslog detection per subscription) decides
// WHEN to re-run it, and the drill-down itself delegates to
// HierarchicalAnalyzer over the subscribed store — so the final
// streaming diagnosis is equal (operator==, confidence and evidence
// chain included) to what a batch run over the same telemetry produces.
// The PR-8 store indexes (host->QP, per-QP sample buckets, running
// last_iteration) keep those online re-diagnoses cheap.
//
// Rollups are published as obs::Metrics gauges ("stream.pod<p>..."),
// from which render_pod_dashboard() renders the compact per-Pod text
// dashboard (examples/monitor_dashboard).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "monitor/analyzer.h"
#include "obs/metrics.h"

namespace astral::monitor {

/// Which class of fabric link a record rolls up into (the reduction
/// levels under a Pod). Core<->core links, when a fabric has them, count
/// as Spine.
enum class LinkTier : std::uint8_t {
  HostUplink = 0,  ///< Host <-> ToR (tier-1 access).
  LeafAgg = 1,     ///< ToR <-> Agg (tier-2, intra-pod).
  Spine = 2,       ///< Agg <-> Core and above (tier-3, cross-pod).
};
inline constexpr int kLinkTiers = 3;
const char* to_string(LinkTier tier);

/// Classifies a link by its endpoint kinds.
LinkTier link_tier(const topo::Topology& topo, topo::LinkId link);
/// Pod a link rolls up into: the pod of its non-core endpoint (core
/// <-> core links return -1; callers clamp into pod 0).
int link_pod(const topo::Topology& topo, topo::LinkId link);

/// EWMA regression alarms over the per-Pod rollups: the gray-failure
/// precursor detector. A gray fault (flapping link, partial degrade,
/// slow NIC) never trips the binary triggers — no stall, no errCQE, no
/// fatal syslog — but it bends the rollup EWMAs: per-Pod QP goodput
/// sags, PFC/ECN delta rates climb toward a storm, INT hop latency
/// regresses. Each signal keeps a fast and a slow EWMA; an alarm is the
/// rising edge of their ratio crossing its threshold (with hysteresis,
/// so a noisy ratio does not re-raise every sample). Default-disabled:
/// with `enabled == false` nothing here executes and the analyzer's
/// behavior is byte-identical to the pre-alarm service.
struct GrayAlarmConfig {
  bool enabled = false;
  /// Fast / slow EWMA decay rates (fast tracks the incident, slow is
  /// the self-calibrating baseline).
  double fast_alpha = 0.3;
  double slow_alpha = 0.02;
  /// Observations of a signal before its ratio is trusted (startup
  /// guard: both EWMAs seed from the first sample).
  std::uint64_t min_samples = 8;
  /// QP-rate regression: alarm when fast < factor * slow.
  double qp_regress_factor = 0.8;
  /// PFC-storm precursor: alarm when the fast pause-delta EWMA exceeds
  /// factor * slow AND the absolute floor (pauses per sample).
  double pfc_storm_factor = 3.0;
  double pfc_storm_min = 1.0;
  /// ECN marks count toward the storm precursor at this weight (marks
  /// precede pauses in the congestion cascade).
  double ecn_weight = 0.1;
  /// Hop-latency regression: alarm when fast > factor * slow.
  double hop_regress_factor = 1.5;
  /// Hysteresis: a raised alarm clears only when the ratio retreats
  /// past its threshold by this fraction.
  double clear_margin = 0.1;
  /// Retained alarm records (raising keeps counting past the cap; the
  /// earliest alarms are kept — lead time reads the first one).
  std::size_t max_alarms = 256;
};

struct StreamAnalyzerConfig {
  /// Thresholds for the delegated drill-down AND the online triggers.
  /// Must match the batch analyzer's config for the equivalence
  /// contract (streaming diagnosis == HierarchicalAnalyzer::diagnose()).
  AnalyzerConfig analyzer;
  /// Decay of the per-record rollup EWMAs (QP rate, link utilization,
  /// INT hop latency).
  double ewma_alpha = 0.2;
  /// Gray-failure precursor alarms (off by default).
  GrayAlarmConfig gray;
};

/// Which rollup EWMA a gray alarm fired on.
enum class GraySignal : std::uint8_t {
  QpRateRegression = 0,   ///< Per-Pod QP goodput sagged below baseline.
  PfcPrecursor = 1,       ///< PFC/ECN delta rate climbing toward a storm.
  HopLatencyRegression = 2,  ///< INT hop latency regressed.
};
inline constexpr int kGraySignals = 3;
const char* to_string(GraySignal s);

/// One precursor alarm: the rising edge of a signal ratio crossing its
/// threshold in one Pod, stamped with the telemetry time that raised it
/// (lead time = hard-failure time minus this).
struct GrayAlarm {
  core::Seconds t = 0.0;
  int pod = 0;
  GraySignal signal = GraySignal::QpRateRegression;
  double ratio = 0.0;  ///< fast/slow at the moment of raising.
  std::int64_t job_id = 0;
};

/// Link-level aggregate of one (pod, tier) rollup leaf. Fixed size; the
/// upward reduction (reduce_from) merges counters additively and EWMAs
/// sample-weighted.
struct TierRollup {
  std::uint64_t counter_samples = 0;  ///< LinkCounterSamples ingested.
  std::uint64_t ecn_marks = 0;        ///< Effective (post-delta) marks.
  std::uint64_t pfc_pauses = 0;
  std::uint64_t mod_drops = 0;
  double util_ewma = 0.0;  ///< Of samples carrying utilization (> 0).
  std::uint64_t util_samples = 0;
  double hop_latency_ewma = 0.0;  ///< Seconds, from INT probe hops.
  std::uint64_t probe_hops = 0;

  /// Pod -> tier -> fabric reduction stage: counters add, EWMAs merge
  /// weighted by their sample counts.
  void reduce_from(const TierRollup& child);
};

/// Everything the service tracks per Pod: the three link-tier leaves
/// plus host/transport-side aggregates and the fault/MTTR histogram.
/// Fixed footprint (obs::Histogram allocates once at construction).
struct PodRollup {
  std::array<TierRollup, kLinkTiers> tiers;
  double qp_rate_ewma_bps = 0.0;
  std::uint64_t qp_samples = 0;
  std::uint64_t err_cqes = 0;
  std::uint64_t syslog_warn = 0;
  std::uint64_t syslog_error = 0;
  std::uint64_t syslog_fatal = 0;
  std::uint64_t faults = 0;  ///< Mitigated job faults + fleet faults.
  std::uint64_t blast_jobs_touched = 0;
  double blast_host_hours_lost = 0.0;
  obs::Histogram mttr_s;

  /// First reduction stage: this Pod's link stats over its tiers.
  TierRollup links() const;
};

/// The root of the reduction: fabric-wide view over all Pods.
struct FabricRollup {
  TierRollup links;
  double qp_rate_ewma_bps = 0.0;
  std::uint64_t qp_samples = 0;
  std::uint64_t err_cqes = 0;
  std::uint64_t syslog_fatal = 0;
  std::uint64_t faults = 0;
  std::uint64_t blast_jobs_touched = 0;
  double blast_host_hours_lost = 0.0;
};

class StreamAnalyzer {
 public:
  /// What the service needs to know about a job to diagnose it online:
  /// the Seer-forecast expectations (the batch analyzer's inputs) and
  /// the pod of each job host rank (so host-keyed records roll up).
  struct JobContext {
    std::int64_t job_id = 0;
    core::Seconds expected_compute = 0.0;
    core::Seconds expected_comm = 0.0;
    std::vector<int> host_pods;  ///< Pod per job host rank.
  };

  StreamAnalyzer(const topo::Topology& topo, StreamAnalyzerConfig cfg = {});
  ~StreamAnalyzer();
  StreamAnalyzer(const StreamAnalyzer&) = delete;
  StreamAnalyzer& operator=(const StreamAnalyzer&) = delete;

  // ---- Subscriptions. One per live TelemetryStore (per JobEngine
  // segment under FleetRuntime). The analyzer must outlive its subscribed
  // stores or be detached (unsubscribe) first.

  /// Attaches at `store`'s ingestion seam. Records already in the store
  /// are replayed into the rollups first, so mid-run attachment misses
  /// nothing; from then on every accepted record streams in live.
  void subscribe(TelemetryStore& store, JobContext ctx);
  /// Detaches; runs a final diagnosis over everything the store holds
  /// and files it under the job id (diagnosis() keeps serving it).
  void unsubscribe(TelemetryStore& store);
  std::size_t subscriptions() const { return live_; }

  // ---- Online diagnosis. The returned object is what
  // HierarchicalAnalyzer(store, ...).diagnose() returns over the same
  // telemetry — the equivalence contract tested per scenario.

  /// Current diagnosis of a job (recomputed if records arrived since
  /// the last trigger); falls back to the finalized diagnosis after
  /// unsubscribe. Default-constructed (healthy, no evidence) for an
  /// unknown job.
  Diagnosis diagnosis(std::int64_t job_id = 0);
  /// How many times the job's online diagnosis was (re)computed.
  std::uint64_t revisions(std::int64_t job_id = 0) const;
  /// Online anomaly suspicion (stall / slow / errCQE / fatal syslog
  /// seen, or a gray precursor alarm when those are enabled) — the
  /// trigger driving eager re-diagnosis.
  bool online_anomaly(std::int64_t job_id = 0) const;

  // ---- Gray precursor alarms (empty unless cfg.gray.enabled).

  /// Retained alarm records, oldest first (bounded by
  /// cfg.gray.max_alarms; see alarms_raised for the true total).
  const std::vector<GrayAlarm>& alarms() const { return gray_alarms_; }
  /// Total rising edges, including any past the retention cap.
  std::uint64_t alarms_raised() const { return gray_raised_; }
  /// Telemetry time of the earliest alarm (in `pod`, or anywhere with
  /// pod < 0); -1 when none fired.
  core::Seconds first_alarm_time(int pod = -1) const;

  /// Fires whenever an online trigger produces a *changed* diagnosis
  /// for a job (anomaly onset, then once per completed iteration while
  /// anomalous, and at unsubscribe).
  using DiagnosisCallback =
      std::function<void(std::int64_t job_id, const Diagnosis&, core::Seconds t)>;
  void set_on_diagnosis(DiagnosisCallback cb) { on_diagnosis_ = std::move(cb); }

  /// Fires at most once per `interval` of telemetry time (max of record
  /// timestamps) — the dashboard refresh hook. 0 disables.
  using FrameCallback = std::function<void(core::Seconds t)>;
  void set_frame_callback(core::Seconds interval, FrameCallback cb);

  // ---- Non-store feeds (runtime ledgers that never enter the
  // telemetry store).

  /// A completed mitigation: lands in the pod's fault count and MTTR
  /// histogram (and the fabric-level histogram).
  void note_mitigation(std::int64_t job_id, core::Seconds mttr_s, int pod);
  /// A fleet-level fault struck `jobs_touched` tenants in `pod`.
  void note_fleet_fault(int pod, std::size_t jobs_touched);
  /// Blast-radius capacity charge attributed to `pod` (host-hours).
  void note_blast_radius(int pod, double host_hours_lost);

  // ---- Rollup reads (the reduction stages).

  int pods() const { return static_cast<int>(pods_.size()); }
  const PodRollup& pod(int p) const { return pods_[static_cast<std::size_t>(p)]; }
  /// One tier reduced across all Pods.
  TierRollup tier(LinkTier t) const;
  /// The root: everything reduced to one fabric-wide view.
  FabricRollup fabric() const;
  /// Fabric-level MTTR histogram (recorded in parallel with the per-pod
  /// ones — histograms don't merge, so the root keeps its own).
  const obs::Histogram& fabric_mttr() const { return fabric_mttr_; }
  std::uint64_t records_ingested() const { return records_; }

  /// Bytes the service retains, counting every container's capacity.
  /// Bounded: once the fabric's QPs and pods have been seen this is
  /// EXACTLY constant under further ingestion (the property test).
  std::size_t footprint_bytes() const;

  /// Publishes the rollups as gauges: "stream.pod<p>.*",
  /// "stream.pod<p>.tier<t>.*", "stream.fabric.*", "stream.diag.*",
  /// "stream.blast.*" plus stream.records_ingested / footprint_bytes.
  /// Diagnosis gauges reflect the last computed revision (call
  /// diagnosis() first for up-to-the-record freshness).
  void publish(obs::Metrics& m) const;

 private:
  /// Per-store adapter: carries the job identity the TelemetrySink
  /// callbacks lack, plus the job's online trigger state. Deque storage
  /// keeps the sink pointers stable.
  struct Subscription : TelemetrySink {
    StreamAnalyzer* owner = nullptr;
    TelemetryStore* store = nullptr;
    JobContext ctx;
    bool active = false;

    // Online trigger state (bounded).
    int max_iteration = -1;
    bool stall_seen = false;  ///< comm_time < 0 on any host.
    bool slow_seen = false;   ///< compute/comm over the slow factors.
    bool gray_seen = false;   ///< A gray precursor alarm raised.
    std::uint64_t cqe_count = 0;
    std::uint64_t fatal_count = 0;
    bool anomaly = false;
    int last_diag_iter = -1;

    // Cached online diagnosis.
    Diagnosis diag;
    bool have_diag = false;
    bool dirty = false;
    std::uint64_t revisions = 0;

    /// QP -> pod of its source host (from on_register_qp).
    std::unordered_map<QpId, int> qp_pod;

    void on_record(const NcclTimelineEvent& ev) override;
    void on_record(const QpRateSample& s) override;
    void on_record(const ErrCqeEvent& ev) override;
    void on_record(const SflowPathRecord& r) override;
    void on_record(const IntProbeResult& r) override;
    void on_link_counters(const LinkCounterSample& raw, std::uint64_t d_ecn,
                          std::uint64_t d_pfc) override;
    void on_record(const SyslogEvent& ev) override;
    void on_register_qp(const QpMeta& meta) override;
  };

  PodRollup& pod_of(int pod);
  int pod_of_rank(const Subscription& s, int host_rank) const;
  void advance_clock(core::Seconds t);
  void rediagnose(Subscription& s);
  /// Trigger policy: anomaly onset -> immediately; while anomalous ->
  /// once per newly completed iteration; otherwise just mark dirty.
  void maybe_rediagnose(Subscription& s, bool eager);

  void ingest(Subscription& s, const NcclTimelineEvent& ev);
  void ingest(Subscription& s, const QpRateSample& smp);
  void ingest(Subscription& s, const ErrCqeEvent& ev);
  void ingest(Subscription& s, const SflowPathRecord& r);
  void ingest(Subscription& s, const IntProbeResult& r);
  void ingest_link(Subscription& s, const LinkCounterSample& raw,
                   std::uint64_t d_ecn, std::uint64_t d_pfc);
  void ingest(Subscription& s, const SyslogEvent& ev);
  void ingest_meta(Subscription& s, const QpMeta& meta);

  /// Fast + slow EWMA pair of one gray signal (fixed size).
  struct GrayEwma {
    double fast = 0.0;
    double slow = 0.0;
    std::uint64_t n = 0;
  };
  /// Per-Pod gray alarm state: one EWMA pair and one raised-latch per
  /// signal (the latch is the hysteresis edge detector).
  struct GrayPodState {
    std::array<GrayEwma, kGraySignals> sig;
    std::array<bool, kGraySignals> raised{};
    std::uint64_t alarms = 0;
  };
  /// Feeds one observation of `signal` in `pod` and raises/clears the
  /// alarm latch. No-op unless cfg_.gray.enabled.
  void gray_observe(Subscription& s, int pod, GraySignal signal, double x,
                    core::Seconds t);

  const topo::Topology& topo_;
  StreamAnalyzerConfig cfg_;
  std::vector<PodRollup> pods_;
  std::vector<GrayPodState> gray_;
  std::vector<GrayAlarm> gray_alarms_;
  std::uint64_t gray_raised_ = 0;
  obs::Histogram fabric_mttr_;
  /// Link -> (pod, tier) classification cache, filled lazily per link
  /// (bounded by the fabric's link count).
  std::unordered_map<topo::LinkId, std::pair<std::int16_t, std::int8_t>> link_class_;

  std::deque<Subscription> subs_;  ///< Stable addresses for set_sink.
  std::size_t live_ = 0;
  /// Finalized (unsubscribed) jobs: last diagnosis + revision count.
  struct Finalized {
    Diagnosis diag;
    std::uint64_t revisions = 0;
    bool anomaly = false;
  };
  std::map<std::int64_t, Finalized> finalized_;

  DiagnosisCallback on_diagnosis_;
  FrameCallback on_frame_;
  core::Seconds frame_interval_ = 0.0;
  core::Seconds next_frame_ = 0.0;
  core::Seconds now_ = 0.0;  ///< Max record timestamp seen.
  std::uint64_t records_ = 0;
};

/// Renders the compact per-Pod text dashboard from the "stream.*"
/// gauges a publish() call left in `m` (the dashboard reads ONLY the
/// metrics registry — it works across a snapshot boundary, e.g. in CI
/// from a metrics JSON round-trip).
std::string render_pod_dashboard(const obs::Metrics& m, int pods);

}  // namespace astral::monitor
