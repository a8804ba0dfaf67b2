#include "monitor/job_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "monitor/analyzer.h"
#include "monitor/degrade.h"
#include "monitor/stream_analyzer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace astral::monitor {

using core::Seconds;

const char* to_string(MitigationAction a) {
  switch (a) {
    case MitigationAction::None: return "none";
    case MitigationAction::RetryBackoff: return "retry-backoff";
    case MitigationAction::Reroute: return "reroute";
    case MitigationAction::Derate: return "derate";
    case MitigationAction::IsolateRestart: return "isolate-restart";
    case MitigationAction::Abort: return "abort";
  }
  return "?";
}

std::optional<std::string> validate_recovery(const RecoveryConfig& rc) {
  std::vector<std::string> problems;
  auto bad = [&](std::string msg) {
    problems.push_back("[" + std::to_string(problems.size()) + "] " + std::move(msg));
  };
  if (rc.checkpoint_interval <= 0) {
    bad("checkpoint_interval must be > 0 (got " +
        std::to_string(rc.checkpoint_interval) + ")");
  }
  if (rc.max_restarts < 0) {
    bad("max_restarts must be >= 0 (got " + std::to_string(rc.max_restarts) + ")");
  }
  if (rc.max_retries < 0) {
    bad("max_retries must be >= 0 (got " + std::to_string(rc.max_retries) + ")");
  }
  if (rc.detect_time < 0.0) {
    bad("detect_time must be >= 0 (got " + std::to_string(rc.detect_time) + ")");
  }
  if (rc.restart_time < 0.0) {
    bad("restart_time must be >= 0 (got " + std::to_string(rc.restart_time) + ")");
  }
  if (rc.backoff_base < 0.0) {
    bad("backoff_base must be >= 0 (got " + std::to_string(rc.backoff_base) + ")");
  }
  if (rc.backoff_factor < 0.0) {
    bad("backoff_factor must be >= 0 (got " + std::to_string(rc.backoff_factor) + ")");
  }
  if (rc.backoff_jitter < 0.0 || rc.backoff_jitter >= 1.0) {
    bad("backoff_jitter must lie in [0, 1) (got " +
        std::to_string(rc.backoff_jitter) + ")");
  }
  if (problems.empty()) return std::nullopt;
  std::string joined;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i) joined += "; ";
    joined += problems[i];
  }
  return joined;
}

void JobEngine::RunTask::promise_type::unhandled_exception() {
  engine->pending_exception_ = std::current_exception();
}

JobEngine::JobEngine(topo::Fabric& fabric, net::FluidSim& sim, JobConfig cfg,
                     std::uint64_t seed, std::vector<topo::NodeId> hosts,
                     int start_iteration)
    : fabric_(fabric),
      sim_(&sim),
      cfg_(std::move(cfg)),
      rng_(seed),
      jitter_rng_(seed ^ 0x6a09e667f3bcc909ull),
      hosts_(std::move(hosts)),
      start_iteration_(start_iteration) {
  if (cfg_.recovery.enabled) {
    if (auto err = validate_recovery(cfg_.recovery)) {
      throw std::invalid_argument("JobEngine: invalid RecoveryConfig: " + *err);
    }
  }
  assert(cfg_.hosts >= 2);
  assert(static_cast<int>(hosts_.size()) == cfg_.hosts);
  assert(start_iteration_ >= 0 && start_iteration_ < cfg_.iterations);
  assert(cfg_.recovery.checkpoint_interval <= 0 ||
         start_iteration_ % cfg_.recovery.checkpoint_interval == 0);
  host_configs_.assign(static_cast<std::size_t>(cfg_.hosts), HostConfig{});
  host_slow_.assign(static_cast<std::size_t>(cfg_.hosts), 1.0);
  if (cfg_.gray.mode == GrayRoutingConfig::Mode::Wcmp) {
    net::WcmpConfig wc = cfg_.gray.wcmp;
    wc.damping = cfg_.gray.flap_damping;
    wcmp_ = std::make_unique<net::WcmpController>(*sim_, wc);
    ring_ports_.assign(static_cast<std::size_t>(cfg_.hosts), 0);
  }
  iter_useful_.assign(static_cast<std::size_t>(cfg_.iterations), 0.0);
  hang_deadline_ = expected_comm() * cfg_.hang_timeout_factor;
  healthy_iter_ = cfg_.compute_time + expected_comm();
  start_time_ = sim_->now();
  now_ = start_time_;
  iter_ = start_iteration_;
  iter_start_ = now_;

  // Register the job's ring QPs (host i -> host i+1 on rail 0) with their
  // transport 5-tuples — the cross-layer key chain of §3.2. A fleet
  // segment re-registers over its (possibly shrunk) host set: this is
  // where the collective group is recomputed after an elastic transition.
  for (int i = 0; i < cfg_.hosts; ++i) {
    int j = (i + 1) % cfg_.hosts;
    net::FlowSpec spec = ring_spec(i);
    QpMeta meta;
    meta.qp = static_cast<QpId>(i);
    meta.src_host_rank = i;
    meta.dst_host_rank = j;
    meta.src_host = spec.src_host;
    meta.dst_host = spec.dst_host;
    meta.tuple.src_ip = spec.src_host;
    meta.tuple.dst_ip = spec.dst_host;
    store_.register_qp(meta);
  }
}

JobEngine::~JobEngine() {
  if (stream_) stream_->unsubscribe(store_);
  if (handle_) handle_.destroy();
}

void JobEngine::set_stream_analyzer(StreamAnalyzer* stream) {
  if (stream_ == stream) return;
  if (stream_) stream_->unsubscribe(store_);
  stream_ = stream;
  if (!stream_) return;
  StreamAnalyzer::JobContext ctx;
  ctx.job_id = cfg_.job_id;
  ctx.expected_compute = expected_compute();
  ctx.expected_comm = expected_comm();
  ctx.host_pods.reserve(hosts_.size());
  for (topo::NodeId h : hosts_) ctx.host_pods.push_back(fabric_.topo().node(h).pod);
  stream_->subscribe(store_, std::move(ctx));
}

net::FlowSpec JobEngine::ring_spec(int rank) const {
  net::FlowSpec spec;
  spec.src_host = hosts_[static_cast<std::size_t>(rank)];
  spec.dst_host = hosts_[static_cast<std::size_t>((rank + 1) % cfg_.hosts)];
  spec.src_rail = 0;
  spec.dst_rail = 0;
  spec.tag = static_cast<std::uint64_t>(rank);
  // WCMP derate pushes steer ranks off degraded links by overriding the
  // deterministic default source port (0 = untouched legacy spread).
  if (!ring_ports_.empty() && ring_ports_[static_cast<std::size_t>(rank)] != 0) {
    spec.src_port = ring_ports_[static_cast<std::size_t>(rank)];
  }
  return spec;
}

Seconds JobEngine::expected_comm() const {
  // One ring flow per NIC port at line rate.
  return core::transfer_time(cfg_.comm_bytes, core::gbps(200.0));
}

void JobEngine::inject(const FaultSpec& fault) {
  if (auto err = validate_fault(fault, cfg_.hosts, fabric_.topo().link_count())) {
    throw std::invalid_argument("ClusterRuntime::inject: " + *err);
  }
  if (auto err = validate_gray(fault, cfg_.hosts, fabric_.topo().link_count())) {
    throw std::invalid_argument("ClusterRuntime::inject: " + *err);
  }
  FaultRt fr;
  fr.spec = fault;
  fr.index = static_cast<int>(faults_.size());
  faults_.push_back(std::move(fr));
}

void JobEngine::inject(const FaultSchedule& schedule) {
  // Gray windows toggle link capacity, so two faults owning one element
  // would make restoration ambiguous; crisp-only schedules keep the
  // permissive legacy validation (cascades on one element are a feature).
  if (has_gray(schedule)) {
    if (auto err =
            validate_schedule(schedule, cfg_.hosts, fabric_.topo().link_count())) {
      throw std::invalid_argument("JobEngine::inject: " + *err);
    }
  }
  for (const FaultSpec& f : schedule.faults) inject(f);
}

topo::LinkId JobEngine::pick_job_path_link(int hops_from_src) const {
  // A link actually on a job QP's path, so the fault is visible. Prefer a
  // cross-block ring edge: its 4-hop path exposes the Agg tier (the
  // Fig. 9 case congests an Agg->ToR downlink).
  int src_rank = 0;
  const auto& topo = fabric_.topo();
  for (int i = 0; i + 1 < cfg_.hosts; ++i) {
    if (topo.node(hosts_[static_cast<std::size_t>(i)]).block !=
        topo.node(hosts_[static_cast<std::size_t>(i + 1)]).block) {
      src_rank = i;
      break;
    }
  }
  net::FlowSpec spec;
  spec.src_host = hosts_[static_cast<std::size_t>(src_rank)];
  spec.dst_host = hosts_[static_cast<std::size_t>(src_rank + 1)];
  spec.src_rail = 0;
  spec.dst_rail = 0;
  spec.tag = static_cast<std::uint64_t>(src_rank);
  auto path = sim_->predict_path(spec);
  if (!path || path->empty()) return topo::kInvalidLink;
  std::size_t idx = std::min<std::size_t>(static_cast<std::size_t>(hops_from_src),
                                          path->size() - 1);
  return (*path)[idx];
}

FaultSpec JobEngine::make_fault(RootCause cause, Manifestation m, int at_iteration) {
  FaultSpec f;
  f.cause = cause;
  f.manifestation = m;
  f.at_iteration = at_iteration;
  if (is_host_side(cause)) {
    f.target_host_rank = static_cast<int>(rng_.uniform_int(
        static_cast<std::uint64_t>(cfg_.hosts)));
    if (cause == RootCause::PcieDegrade) {
      // The PCIe bottleneck surfaces at the receiving NIC: the culprit is
      // the ToR -> host downlink of the affected host.
      net::FlowSpec spec;
      int prev = (f.target_host_rank + cfg_.hosts - 1) % cfg_.hosts;
      spec.src_host = hosts_[static_cast<std::size_t>(prev)];
      spec.dst_host = hosts_[static_cast<std::size_t>(f.target_host_rank)];
      spec.src_rail = 0;
      spec.dst_rail = 0;
      spec.tag = static_cast<std::uint64_t>(prev);
      if (auto path = sim_->predict_path(spec); path && !path->empty()) {
        f.target_link = path->back();
      }
    }
  } else {
    // Network-side: the NIC uplink (hop 0) for NIC errors, otherwise the
    // Agg->ToR downlink (hop 2 of a 4-hop same-rail path) — the hop the
    // paper's Fig. 9 case study congests.
    int hop = cause == RootCause::NicError ? 0 : 2;
    f.target_link = pick_job_path_link(hop);
  }
  // A link flap is the taxonomy's transient: it self-heals after one
  // iteration (legacy behaviour, now expressed through repair_iterations).
  if (cause == RootCause::LinkFlap) f.repair_iterations = 1;
  switch (m) {
    case Manifestation::FailSlow: f.degrade_factor = 0.2; break;
    case Manifestation::FailHang: f.degrade_factor = 0.0; break;
    default: break;
  }
  return f;
}

FaultSpec JobEngine::make_gray_fault(GrayKind kind, int at_iteration,
                                     int hops_from_src) {
  FaultSpec f;
  f.gray = kind;
  f.manifestation = Manifestation::FailSlow;
  f.at_iteration = at_iteration;
  switch (kind) {
    case GrayKind::FlappingLink:
      f.cause = RootCause::LinkFlap;
      f.target_link = pick_job_path_link(hops_from_src);
      f.degrade_factor = 0.2;
      f.repair_iterations = -1;  // flaps until the run ends
      break;
    case GrayKind::PartialDegrade:
      f.cause = RootCause::OpticalFiber;
      f.target_link = pick_job_path_link(hops_from_src);
      f.degrade_factor = 0.5;
      break;
    case GrayKind::SlowNic: {
      f.cause = RootCause::NicError;
      f.target_host_rank = static_cast<int>(
          rng_.uniform_int(static_cast<std::uint64_t>(cfg_.hosts)));
      f.degrade_factor = 0.5;
      // The telemetry anchor: the straggler's rail-0 uplink (activation
      // degrades every side's uplink).
      f.target_link = fabric_.topo().host_uplink(
          hosts_[static_cast<std::size_t>(f.target_host_rank)], 0, 0);
      break;
    }
    case GrayKind::None: break;
  }
  return f;
}

FaultSpec JobEngine::make_mid_transfer_tor_death(int at_iteration, double fraction) {
  // The whole ToR over the job's rail-0 uplink dies with flows in flight:
  // the switch_scope takes every port of the switch down, and the
  // mid-transfer strike exercises the dual-ToR in-flight failover.
  FaultSpec f;
  f.cause = RootCause::SwitchBug;
  f.manifestation = Manifestation::FailStop;
  f.at_iteration = at_iteration;
  f.target_link = pick_job_path_link(0);  // host -> ToR uplink
  f.switch_scope = true;
  f.mid_transfer_fraction = fraction;
  return f;
}

void JobEngine::emit_injection_syslog(const FaultSpec& f, Seconds t) {
  auto host_node = [&](int rank) { return hosts_[static_cast<std::size_t>(rank)]; };
  auto switch_of_link = [&](topo::LinkId l) { return fabric_.topo().link(l).src; };
  switch (f.cause) {
    case RootCause::HostEnvConfig:
      ingest(SyslogEvent{t, host_node(f.target_host_rank), f.target_host_rank,
                                "fatal", "nccl init failed: peer env/config mismatch"});
      host_configs_[static_cast<std::size_t>(f.target_host_rank)].nccl_version = "2.19.3";
      break;
    case RootCause::GpuHardware:
      ingest(SyslogEvent{t, host_node(f.target_host_rank), f.target_host_rank,
                                "fatal", "NVRM: Xid 79: GPU has fallen off the bus"});
      break;
    case RootCause::Memory:
      ingest(SyslogEvent{t, host_node(f.target_host_rank), f.target_host_rank,
                                "fatal", "EDAC MC0: UCE ECC error on DIMM"});
      break;
    case RootCause::UserCode:
      // A python exception surfaces on every rank — no hardware log.
      for (int i = 0; i < cfg_.hosts; ++i) {
        ingest(SyslogEvent{t, host_node(i), i, "error",
                                  "trainer: RuntimeError in user forward()"});
      }
      break;
    case RootCause::CclBug:
      // Silent: the collective just never completes.
      break;
    case RootCause::PcieDegrade:
      if (cfg_.pcie_monitoring) {
        ingest(SyslogEvent{t, host_node(f.target_host_rank), f.target_host_rank,
                                  "warn", "PCIe: link width degraded to x4"});
      }
      break;
    case RootCause::NicError:
      if (f.target_link != topo::kInvalidLink) {
        const auto& link = fabric_.topo().link(f.target_link);
        int rank = 0;
        for (int i = 0; i < cfg_.hosts; ++i) {
          if (hosts_[static_cast<std::size_t>(i)] == link.src) rank = i;
        }
        ingest(SyslogEvent{t, link.src, rank, "error",
                                  "mlx5: CQE error syndrome 0x04 (retry exceeded)"});
      }
      break;
    case RootCause::SwitchConfig:
      ingest(SyslogEvent{t, switch_of_link(f.target_link), -1, "warn",
                                "qos: ecn threshold misconfigured on egress queue"});
      break;
    case RootCause::SwitchBug:
      // Silent blackhole; only MOD drop counters betray it.
      break;
    case RootCause::OpticalFiber:
      ingest(SyslogEvent{t, switch_of_link(f.target_link), -1, "warn",
                                "transceiver: rx optical power below threshold"});
      break;
    case RootCause::WireConnection:
      ingest(SyslogEvent{t, switch_of_link(f.target_link), -1, "warn",
                                "lldp: neighbor mismatch with cabling plan"});
      break;
    case RootCause::LinkFlap:
      ingest(SyslogEvent{t, switch_of_link(f.target_link), -1, "warn",
                                "port: link down"});
      ingest(SyslogEvent{t + 0.5, switch_of_link(f.target_link), -1, "warn",
                                "port: link up"});
      break;
  }
}

void JobEngine::apply_network_fault(const FaultSpec& f) {
  if (f.target_link == topo::kInvalidLink) return;
  double factor = 1.0;
  switch (f.manifestation) {
    case Manifestation::FailSlow: factor = f.degrade_factor; break;
    case Manifestation::FailHang: factor = 0.0; break;
    case Manifestation::FailStop: factor = 0.0; break;  // + errCQE below
    case Manifestation::FailOnStart: factor = 0.0; break;
  }
  sim_->degrade_link(f.target_link, factor);
}

void JobEngine::fail_links(const FaultSpec& f) {
  if (f.target_link == topo::kInvalidLink) return;
  auto& topo = fabric_.topo();
  auto down = [&](topo::LinkId l) {
    if (topo.link(l).up) {
      sim_->set_link_up(l, false);
      downed_links_.push_back(l);
    }
  };
  if (f.switch_scope) {
    // The whole switch at the link's fabric end goes dark: every port.
    const auto& link = topo.link(f.target_link);
    topo::NodeId sw =
        topo.node(link.src).kind == topo::NodeKind::Host ? link.dst : link.src;
    for (topo::LinkId l : topo.out_links(sw)) down(l);
    for (topo::LinkId l : topo.in_links(sw)) down(l);
  } else {
    down(f.target_link);
  }
}

// Seeds a gray fault's degraded-link set and applies the initial
// degradation. Silent by design: no syslog, no errCQE — gray faults are
// visible only through their effect on rates and counters.
void JobEngine::activate_gray(FaultRt& fr) {
  const FaultSpec& f = fr.spec;
  fr.gray_links.clear();
  if (f.gray == GrayKind::SlowNic) {
    topo::NodeId host = hosts_[static_cast<std::size_t>(f.target_host_rank)];
    for (int side = 0; side < fabric_.topo().sides(); ++side) {
      topo::LinkId l = fabric_.topo().host_uplink(host, 0, side);
      if (l != topo::kInvalidLink) fr.gray_links.push_back(l);
    }
  } else if (f.target_link != topo::kInvalidLink) {
    fr.gray_links.push_back(f.target_link);
  }
  fr.gray_down_phase = true;  // flapping starts in its degraded phase
  for (topo::LinkId l : fr.gray_links) sim_->degrade_link(l, f.degrade_factor);
}

// FlappingLink duty cycle, driven off committed active iterations so the
// phase pattern is deterministic: `flap_down_iters` degraded, then
// `flap_up_iters` healthy, repeating. Runs at iteration boundaries.
void JobEngine::tick_gray_phases() {
  for (FaultRt& fr : faults_) {
    if (!fr.applied || fr.healed || fr.spec.gray != GrayKind::FlappingLink) continue;
    int cycle = fr.spec.flap_down_iters + fr.spec.flap_up_iters;
    bool down = fr.active_iters % cycle < fr.spec.flap_down_iters;
    if (down != fr.gray_down_phase) {
      fr.gray_down_phase = down;
      for (topo::LinkId l : fr.gray_links) {
        sim_->degrade_link(l, down ? fr.spec.degrade_factor : 1.0);
      }
    }
  }
}

std::vector<std::pair<topo::LinkId, double>> JobEngine::gray_observations()
    const {
  std::vector<topo::LinkId> watch;
  auto add = [&](topo::LinkId l) {
    if (l == topo::kInvalidLink) return;
    if (std::find(watch.begin(), watch.end(), l) == watch.end()) watch.push_back(l);
  };
  for (net::FlowId fid : flows_) {
    const auto& st = sim_->flow(fid);
    if (!st.admitted) continue;
    for (topo::LinkId l : st.path) add(l);
  }
  for (const FaultRt& fr : faults_) {
    if (!fr.applied || fr.healed) continue;
    for (topo::LinkId l : fr.gray_links) add(l);
  }
  // Cordoned links stay under observation so recovery is noticed.
  for (topo::LinkId l : gray_cordoned_) add(l);
  std::vector<std::pair<topo::LinkId, double>> out;
  out.reserve(watch.size());
  for (topo::LinkId l : watch) {
    double nominal = static_cast<double>(fabric_.topo().link(l).capacity);
    double frac =
        nominal > 0.0 ? sim_->effective_capacity(l) / nominal : 1.0;
    out.emplace_back(l, frac);
  }
  return out;
}

int JobEngine::gray_fault_index_for(topo::LinkId link) const {
  for (const FaultRt& fr : faults_) {
    if (!fr.applied) continue;
    for (topo::LinkId l : fr.gray_links) {
      if (l == link) return fr.index;
    }
  }
  for (const FaultRt& fr : faults_) {
    if (fr.applied && fr.spec.target_link == link) return fr.index;
  }
  for (const FaultRt& fr : faults_) {
    if (fr.applied && fr.spec.gray != GrayKind::None) return fr.index;
  }
  return -1;
}

void JobEngine::heal_fault(FaultRt& fr) {
  const FaultSpec& f = fr.spec;
  if (f.gray != GrayKind::None) {
    for (topo::LinkId l : fr.gray_links) sim_->degrade_link(l, 1.0);
    fr.healed = true;
    return;
  }
  if (is_host_side(f.cause)) {
    host_slow_[static_cast<std::size_t>(f.target_host_rank)] = 1.0;
    host_configs_[static_cast<std::size_t>(f.target_host_rank)] = HostConfig{};
    if (f.target_link != topo::kInvalidLink) sim_->degrade_link(f.target_link, 1.0);
  } else if (f.target_link != topo::kInvalidLink) {
    sim_->degrade_link(f.target_link, 1.0);
  }
  fr.healed = true;
}

Seconds JobEngine::analyzer_locate_time() const {
  HierarchicalAnalyzer analyzer(store_, fabric_.topo(), expected_compute(),
                                expected_comm());
  return analyzer.diagnose().locate_time;
}

template <typename T>
void JobEngine::ingest(T rec) {
  if (degrade_) {
    degrade_->record(std::move(rec), store_);
  } else {
    store_.record(std::move(rec));
  }
}

void JobEngine::flush_telemetry() {
  if (degrade_) degrade_->flush(store_);
}

void JobEngine::restore_downed_links() {
  auto& topo = fabric_.topo();
  for (topo::LinkId l : downed_links_) topo.set_link_state(l, true);
  downed_links_.clear();
}

void JobEngine::finalize_outcome() {
  out_.makespan = std::max(now_, sim_->now()) - start_time_;
  out_.committed_iterations = iter_;
  out_.oscillations =
      gray_binary_osc_ +
      (wcmp_ ? static_cast<int>(wcmp_->oscillations()) : 0);
  out_.goodput = 0.0;
  if (out_.makespan > 0.0) {
    out_.goodput =
        std::min(1.0, static_cast<double>(iter_) * healthy_iter_ / out_.makespan);
  }
}

// Fault-track events share the fault's schedule index as their key.
void JobEngine::trace_injection(const FaultRt& fr, Seconds t) {
  if (metrics_) metrics_->add("runtime.faults.injected");
  if (!tracer_) return;
  obs::TraceKeys k;
  k.fault = fr.index;
  if (fr.spec.target_link != topo::kInvalidLink) k.link = fr.spec.target_link;
  tracer_->instant(obs::Track::Fault, "fault.injected", t, k,
                   to_string(fr.spec.cause));
}

// The MTTR phase breakdown as Fault-track spans, with instants marking
// the paper's detect -> locate -> mitigate pipeline stages.
void JobEngine::trace_mitigation(const MitigationRecord& rec, Seconds t0) {
  if (metrics_) {
    metrics_->add("runtime.mitigations");
    metrics_->histogram("runtime.mttr_s").record(rec.mttr());
  }
  if (stream_) {
    // Attribute the repair to the pod the fault lives in (the stricken
    // link's pod, or the culprit host's).
    const FaultSpec& fs = fault_spec(rec.fault_index);
    int pod = 0;
    if (fs.target_link != topo::kInvalidLink) {
      pod = link_pod(fabric_.topo(), fs.target_link);
    } else if (fs.target_host_rank >= 0 &&
               fs.target_host_rank < static_cast<int>(hosts_.size())) {
      pod = fabric_.topo().node(hosts_[static_cast<std::size_t>(fs.target_host_rank)]).pod;
    }
    stream_->note_mitigation(cfg_.job_id, rec.mttr(), pod);
  }
  if (!tracer_) return;
  obs::TraceKeys k;
  k.fault = rec.fault_index;
  tracer_->span(obs::Track::Fault, "mttr.detect", t0, rec.detect_time, k);
  tracer_->instant(obs::Track::Fault, "fault.detected", t0 + rec.detect_time, k);
  tracer_->span(obs::Track::Fault, "mttr.locate", t0 + rec.detect_time,
                rec.locate_time, k);
  tracer_->instant(obs::Track::Fault, "fault.located",
                   t0 + rec.detect_time + rec.locate_time, k);
  tracer_->span(obs::Track::Fault, "mttr.recover",
                t0 + rec.detect_time + rec.locate_time, rec.recover_time, k, 0.0,
                to_string(rec.action));
  tracer_->instant(obs::Track::Fault, "fault.mitigated", t0 + rec.mttr(), k,
                   to_string(rec.action));
}

// Picks the fault a failure is attributed to: the most recently
// activated unresolved fault, falling back to the last activated one
// (residual damage of an already-mitigated fault).
JobEngine::FaultRt* JobEngine::responsible() {
  // Gray faults never cause the hard failures this attributes (they only
  // shift capacity), so they are skipped: blaming a flapping link for an
  // unrelated hang would steer the crisp ladder at the wrong element.
  FaultRt* best = nullptr;
  for (FaultRt& fr : faults_) {
    if (fr.spec.gray != GrayKind::None) continue;
    if (fr.applied && !fr.resolved()) best = &fr;
  }
  if (best) return best;
  for (FaultRt& fr : faults_) {
    if (fr.spec.gray != GrayKind::None) continue;
    if (fr.applied) best = &fr;
  }
  return best;
}

// Runs the mitigation state machine after the analyzer has had its look
// at the telemetry, up to (not including) the MTTR wall-clock stall;
// the coroutine awaits pending_rec_.mttr() and calls finish_mitigation().
// Returns false when the job must abort (budget exhausted / recovery
// disabled).
bool JobEngine::begin_mitigation(FaultRt* fr, Manifestation observed,
                                 Seconds attempt_wall) {
  const RecoveryConfig& rc = cfg_.recovery;
  out_.wasted_time += attempt_wall;
  if (!rc.enabled || fr == nullptr) return false;
  MitigationRecord rec;
  rec.fault_index = fr->index;
  rec.at_iteration = iter_;
  rec.observed = observed;
  rec.detect_time = rc.detect_time;
  rec.locate_time = analyzer_locate_time();
  MitigationAction action;
  if (fr->resolved()) {
    // Residual damage from an already-handled fault: just retry.
    action = MitigationAction::RetryBackoff;
  } else if (is_host_side(fr->spec.cause) ||
             fr->spec.gray == GrayKind::SlowNic) {
    // SlowNic is host-scoped despite its network-side cause: the ladder
    // escalation from Derate cordons the straggler host itself.
    action = MitigationAction::IsolateRestart;
  } else if (fr->spec.repair_iterations >= 0) {
    action = MitigationAction::RetryBackoff;
  } else {
    action = MitigationAction::Reroute;
  }
  if (action == MitigationAction::IsolateRestart && out_.restarts >= rc.max_restarts) {
    action = MitigationAction::Abort;
  }
  if (action == MitigationAction::RetryBackoff && fr->retries >= rc.max_retries) {
    action = MitigationAction::Abort;
  }
  rec.action = action;
  if (action == MitigationAction::Abort) {
    rec.succeeded = false;
    out_.mitigations.push_back(rec);
    if (metrics_) metrics_->add("runtime.mitigation_aborts");
    if (tracer_) {
      obs::TraceKeys k;
      k.fault = rec.fault_index;
      tracer_->instant(obs::Track::Fault, "mitigation.abort", sim_->now(), k,
                       to_string(rec.observed));
    }
    return false;
  }
  switch (action) {
    case MitigationAction::RetryBackoff:
      rec.recover_time = rc.backoff_base *
                         std::pow(rc.backoff_factor, static_cast<double>(fr->retries));
      // Opt-in seeded jitter decorrelates tenants retrying after one
      // shared fault; at 0 the factor is exactly 1 and the wait unchanged.
      rec.recover_time *=
          1.0 + rc.backoff_jitter * (2.0 * jitter_rng_.uniform() - 1.0);
      ++fr->retries;
      ++out_.retries;
      // Waiting out a transient counts as an attempt toward self-heal.
      if (!fr->healed && fr->spec.repair_iterations >= 0) {
        ++fr->active_iters;
        if (fr->active_iters >= fr->spec.repair_iterations) heal_fault(*fr);
      }
      break;
    case MitigationAction::Reroute:
      // Cordon the dead link/switch so routing (and the next attempt's
      // fresh flows) steers around it.
      fail_links(fr->spec);
      sim_->reroute_flows();
      fr->mitigated = true;
      break;
    case MitigationAction::IsolateRestart: {
      heal_fault(*fr);
      fr->mitigated = true;
      rec.recover_time = rc.restart_time;
      ++out_.restarts;
      int cp = rc.checkpoint_interval > 0
                   ? (iter_ / rc.checkpoint_interval) * rc.checkpoint_interval
                   : iter_;
      // Committed-but-uncheckpointed iterations are replayed: their
      // time moves from useful to wasted.
      for (int k = cp; k < iter_; ++k) {
        out_.wasted_time += iter_useful_[static_cast<std::size_t>(k)];
        out_.useful_time -= iter_useful_[static_cast<std::size_t>(k)];
        iter_useful_[static_cast<std::size_t>(k)] = 0.0;
      }
      iter_ = cp;
      break;
    }
    default: break;
  }
  rec.succeeded = true;
  // Tear down whatever the failed attempt left in the fabric, then let
  // the wall clock absorb the outage (detect + locate + recover).
  for (net::FlowId fid : flows_) {
    const auto& st = sim_->flow(fid);
    if (st.admitted && st.finish < 0 && !st.aborted) sim_->abort_flow(fid);
  }
  trace_mitigation(rec, sim_->now());
  pending_rec_ = rec;
  return true;
}

void JobEngine::finish_mitigation() {
  out_.downtime += pending_rec_.mttr();
  out_.mitigations.push_back(pending_rec_);
  now_ = sim_->now();
  sim_->recycle_finished();
}

void JobEngine::strike_fault(FaultRt& fr) {
  const RecoveryConfig& rc = cfg_.recovery;
  const FaultSpec& f = fr.spec;
  emit_injection_syslog(f, sim_->now());
  trace_injection(fr, sim_->now());
  fr.applied = true;
  fr.applied_at = sim_->now();
  if (is_host_side(f.cause)) {
    if (f.manifestation == Manifestation::FailStop) {
      // The host dies with flows in flight: its QPs abort and the
      // peers see remote errors.
      topo::NodeId dead = hosts_[static_cast<std::size_t>(f.target_host_rank)];
      for (int i = 0; i < cfg_.hosts; ++i) {
        const auto& st = sim_->flow(flows_[static_cast<std::size_t>(i)]);
        if (!st.admitted || st.finish >= 0 || st.aborted) continue;
        if (st.spec.src_host == dead || st.spec.dst_host == dead) {
          sim_->abort_flow(flows_[static_cast<std::size_t>(i)]);
          ingest(ErrCqeEvent{sim_->now(), static_cast<QpId>(i), i,
                                    "remote operation error / peer died"});
        }
      }
    } else {
      host_slow_[static_cast<std::size_t>(f.target_host_rank)] = 3.0;
    }
    return;
  }
  // Network fault in flight: degrade for fail-slow, dead otherwise.
  if (f.manifestation == Manifestation::FailSlow) {
    sim_->degrade_link(f.target_link, f.degrade_factor);
    return;
  }
  fail_links(f);
  if (rc.enabled) {
    // In-flight failover (P3): migrate live flows onto the surviving
    // dual-ToR side. The job never stops, so MTTR is the transport's
    // sub-second failover — modeled as zero against minutes-scale
    // detect/locate pipelines.
    auto rep = sim_->reroute_flows();
    out_.reroutes += static_cast<int>(rep.rerouted.size());
    if (metrics_) metrics_->add("runtime.inflight_reroutes", rep.rerouted.size());
    if (tracer_) {
      obs::TraceKeys k;
      k.fault = fr.index;
      tracer_->instant(obs::Track::Fault, "fault.inflight_reroute", sim_->now(),
                       k, to_string(f.cause));
    }
    for (net::FlowId fid : rep.stranded) sim_->abort_flow(fid);
    MitigationRecord rec;
    rec.fault_index = fr.index;
    rec.at_iteration = iter_;
    rec.observed = f.manifestation;
    rec.action = MitigationAction::Reroute;
    rec.succeeded = rep.all_moved();
    out_.mitigations.push_back(rec);
    fr.mitigated = true;
  }
}

JobEngine::RunTask JobEngine::run_co() {
  const RecoveryConfig& rc = cfg_.recovery;

  // Host-side compute effects that persist across iterations.
  for (const FaultRt& fr : faults_) {
    if (is_host_side(fr.spec.cause) &&
        fr.spec.manifestation == Manifestation::FailSlow &&
        fr.spec.cause != RootCause::PcieDegrade) {
      host_slow_[static_cast<std::size_t>(fr.spec.target_host_rank)] = 3.0;
    }
  }

  // The failure the current iteration attempt died of, if any.
  FaultRt* resp = nullptr;

  while (iter_ < cfg_.iterations) {
    // Interposition point: the engine parks here once per iteration so
    // the runtime resuming it can deliver faults or interrupt with no
    // attempt in flight. Zero-advance.
    co_await boundary();
    iter_start_ = now_;
    in_attempt_ = true;
    flows_.clear();

    // Iteration-boundary fault activation (mid-transfer faults strike
    // inside the communication phase instead). Gray faults activate
    // silently — no syslog, no binary detector ever fires.
    for (FaultRt& fr : faults_) {
      if (!fr.applied && fr.spec.mid_transfer_fraction <= 0.0 &&
          iter_ >= fr.spec.at_iteration) {
        if (fr.spec.gray != GrayKind::None) {
          trace_injection(fr, now_);
          activate_gray(fr);
          fr.applied = true;
          fr.applied_at = now_;
          continue;
        }
        emit_injection_syslog(fr.spec, now_);
        trace_injection(fr, now_);
        if (!is_host_side(fr.spec.cause) || fr.spec.cause == RootCause::PcieDegrade) {
          apply_network_fault(fr.spec);
        }
        fr.applied = true;
        fr.applied_at = now_;
      }
    }
    // Flapping links swing between phases at iteration boundaries.
    tick_gray_phases();

    // Fail-on-start / host-side fail-stop: job aborts before or during
    // this iteration's compute.
    resp = nullptr;
    for (FaultRt& fr : faults_) {
      if (fr.applied && !fr.resolved() && fr.spec.mid_transfer_fraction <= 0.0 &&
          (fr.spec.manifestation == Manifestation::FailOnStart ||
           (fr.spec.manifestation == Manifestation::FailStop &&
            is_host_side(fr.spec.cause)))) {
        resp = &fr;
        break;
      }
    }
    if (resp) {
      for (int i = 0; i < cfg_.hosts; ++i) {
        NcclTimelineEvent ev;
        ev.t = now_;
        ev.host_rank = i;
        ev.iteration = iter_;
        ev.compute_time = i == resp->spec.target_host_rank ? 0.0 : cfg_.compute_time;
        ev.comm_time = -1.0;
        ev.wr_started = 1;
        ev.wr_finished = 0;
        ingest(ev);
      }
      if (begin_mitigation(resp, resp->spec.manifestation, 0.0)) {
        in_attempt_ = false;
        co_await sim_until(sim_->now() + pending_rec_.mttr());
        finish_mitigation();
        continue;
      }
      out_.stopped_at_iteration = iter_;
      out_.observed = resp->spec.manifestation;
      finalize_outcome();
      co_return;
    }

    // Host-side fail-hang (driver/CCL bug, hung user code): the target
    // host never posts its work request; every rank blocks in the
    // collective. wr_started distinguishes the culprit (§3.2).
    for (FaultRt& fr : faults_) {
      if (fr.applied && !fr.resolved() && is_host_side(fr.spec.cause) &&
          fr.spec.mid_transfer_fraction <= 0.0 &&
          fr.spec.manifestation == Manifestation::FailHang) {
        resp = &fr;
        break;
      }
    }
    if (resp) {
      for (int i = 0; i < cfg_.hosts; ++i) {
        NcclTimelineEvent ev;
        ev.t = now_;
        ev.host_rank = i;
        ev.iteration = iter_;
        ev.compute_time = cfg_.compute_time;
        ev.comm_time = -1.0;
        ev.wr_started = i == resp->spec.target_host_rank ? 0 : 1;
        ev.wr_finished = 0;
        ingest(ev);
      }
      // The collective timeout burns before anyone notices a hang.
      Seconds stall = rc.enabled ? hang_deadline_ : 0.0;
      if (stall > 0.0) co_await sim_until(sim_->now() + stall);
      if (begin_mitigation(resp, Manifestation::FailHang, stall)) {
        in_attempt_ = false;
        co_await sim_until(sim_->now() + pending_rec_.mttr());
        finish_mitigation();
        continue;
      }
      out_.stopped_at_iteration = iter_;
      out_.observed = Manifestation::FailHang;
      finalize_outcome();
      co_return;
    }

    // ---- Compute phase.
    std::vector<Seconds> compute(static_cast<std::size_t>(cfg_.hosts));
    Seconds max_compute = 0.0;
    for (int i = 0; i < cfg_.hosts; ++i) {
      double noise = 1.0 + std::abs(rng_.normal(0.0, 0.01));
      compute[static_cast<std::size_t>(i)] =
          cfg_.compute_time * noise * host_slow_[static_cast<std::size_t>(i)];
      max_compute = std::max(max_compute, compute[static_cast<std::size_t>(i)]);
    }

    // ---- Communication phase: ring flows on rail 0.
    Seconds comm_start = now_ + max_compute;
    co_await sim_until(comm_start);  // advance the network clock
    sim_->reset_stats();
    for (int i = 0; i < cfg_.hosts; ++i) {
      net::FlowSpec spec = ring_spec(i);
      spec.size = cfg_.comm_bytes;
      spec.start = comm_start;
      flows_.push_back(sim_->inject(spec));
    }
    // sFlow path reconstruction + tuple registration (first iteration).
    for (int i = 0; i < cfg_.hosts; ++i) {
      const auto& st = sim_->flow(flows_[static_cast<std::size_t>(i)]);
      if (!st.admitted) continue;
      SflowPathRecord rec;
      rec.t = sim_->now();
      rec.qp = static_cast<QpId>(i);
      rec.tuple = st.tuple;
      rec.path = st.path;
      ingest(rec);
      if (iter_ == 0) {
        auto meta = *store_.qp_meta(static_cast<QpId>(i));
        meta.tuple = st.tuple;
        store_.register_qp(meta);
      }
    }

    // One INT pingmesh sweep per iteration, taken mid-transfer: admit the
    // wave (zero-progress run) so the solver has published this wave's
    // overloads, then sample hop latencies while the flows are in flight.
    // Sweeping after a fixed-interval step instead would race the transfer
    // itself — a short iteration drains within one sample interval and the
    // probes would read an idle fabric.
    co_await sim_until(comm_start);
    for (int i = 0; i < cfg_.hosts; ++i) {
      const auto& st = sim_->flow(flows_[static_cast<std::size_t>(i)]);
      if (!st.admitted) continue;
      IntProbeResult probe;
      probe.t = sim_->now();
      probe.path = st.path;
      for (topo::LinkId l : st.path) probe.hop_latency.push_back(sim_->hop_latency(l));
      ingest(probe);
    }

    // Mid-transfer strikes scheduled inside this iteration's transfer.
    struct Strike {
      FaultRt* fr;
      Seconds t;
    };
    std::vector<Strike> strikes;
    for (FaultRt& fr : faults_) {
      if (!fr.applied && fr.spec.mid_transfer_fraction > 0.0 &&
          iter_ >= fr.spec.at_iteration) {
        strikes.push_back(
            {&fr, comm_start + fr.spec.mid_transfer_fraction * expected_comm()});
      }
    }
    std::sort(strikes.begin(), strikes.end(),
              [](const Strike& a, const Strike& b) { return a.t < b.t; });
    std::size_t next_strike = 0;

    // Step the simulation, sampling QP rates (ms-level monitoring), until
    // the job's own wave drains: other flows on the sim (fleet tenants or
    // anything else) never hold the phase open.
    Seconds deadline = comm_start + hang_deadline_;
    while (comm_in_flight() && sim_->now() < deadline) {
      Seconds step_to = std::min(deadline, sim_->now() + cfg_.qp_sample_interval);
      if (next_strike < strikes.size()) {
        step_to = std::min(step_to, strikes[next_strike].t);
      }
      co_await sim_until(step_to);
      for (int i = 0; i < cfg_.hosts; ++i) {
        ingest(QpRateSample{sim_->now(), static_cast<QpId>(i),
                                   sim_->current_rate(flows_[static_cast<std::size_t>(i)])});
      }
      while (next_strike < strikes.size() &&
             sim_->now() >= strikes[next_strike].t - 1e-12) {
        strike_fault(*strikes[next_strike].fr);
        ++next_strike;
      }
    }
    // Strikes the transfer outran (it finished first) still land, on an
    // idle fabric — the fault exists from now on, it just hit nobody.
    while (next_strike < strikes.size()) {
      strike_fault(*strikes[next_strike].fr);
      ++next_strike;
    }

    // Per-iteration switch counter collection (SNMP + MOD). Only links
    // the sim touched since its last reset can hold ECN/PFC counts, and
    // only the targets of active crisp faults report MOD drops: sample
    // those, in link order.
    mod_links_.clear();
    for (const FaultRt& fr : faults_) {
      // Gray faults slow traffic down but drop nothing; phantom MOD
      // drops would read as a blackhole to the analyzer.
      if (fr.spec.gray == GrayKind::None && fr.applied && !fr.healed &&
          fr.spec.target_link < fabric_.topo().link_count()) {
        mod_links_.push_back(fr.spec.target_link);
      }
    }
    std::uint64_t drops = 0;  // The wave's bytes still in flight.
    if (!mod_links_.empty()) {
      std::sort(mod_links_.begin(), mod_links_.end());
      for (net::FlowId fid : flows_) {
        if (sim_->flow(fid).finish < 0) {
          drops += static_cast<std::uint64_t>(sim_->remaining(fid));
        }
      }
    }
    const std::span<const topo::LinkId> touched = sim_->touched_links();
    counter_links_.assign(touched.begin(), touched.end());
    counter_links_.insert(counter_links_.end(), mod_links_.begin(), mod_links_.end());
    std::sort(counter_links_.begin(), counter_links_.end());
    counter_links_.erase(std::unique(counter_links_.begin(), counter_links_.end()),
                         counter_links_.end());
    for (topo::LinkId l : counter_links_) {
      const auto& ls = sim_->link_stats(l);
      const std::uint64_t mod =
          std::binary_search(mod_links_.begin(), mod_links_.end(), l) ? drops : 0;
      if (ls.ecn_marks || ls.pfc_pauses || mod) {
        ingest(LinkCounterSample{sim_->now(), l, ls.ecn_marks, ls.pfc_pauses, mod, 0.0});
      }
    }

    // Application-layer iteration record.
    bool hung = false;
    for (int i = 0; i < cfg_.hosts; ++i) {
      const auto& st = sim_->flow(flows_[static_cast<std::size_t>(i)]);
      NcclTimelineEvent ev;
      ev.t = now_;
      ev.host_rank = i;
      ev.iteration = iter_;
      ev.compute_time = compute[static_cast<std::size_t>(i)];
      ev.wr_started = 1;
      if (st.admitted && st.finish >= 0) {
        ev.comm_time = st.finish - comm_start;
        ev.wr_finished = 1;
      } else {
        ev.comm_time = -1.0;
        ev.wr_finished = 0;
        hung = true;
      }
      ingest(ev);
    }

    if (hung) {
      // A hard network fault (dead port, misconfigured switch dropping
      // the queue, severed fiber...) exhausts transport retries: errCQE
      // events surface on every QP crossing it and the job observes a
      // fail-stop. Silent blackholes (switch bugs) drop traffic without
      // errors and manifest as fail-hang instead.
      FaultRt* netstop = nullptr;
      for (FaultRt& fr : faults_) {
        if (fr.applied && !fr.resolved() && !is_host_side(fr.spec.cause) &&
            fr.spec.manifestation == Manifestation::FailStop) {
          netstop = &fr;
        }
      }
      if (netstop) {
        for (int i = 0; i < cfg_.hosts; ++i) {
          const auto& st = sim_->flow(flows_[static_cast<std::size_t>(i)]);
          if (st.finish < 0) {
            ingest(ErrCqeEvent{sim_->now(), static_cast<QpId>(i), i,
                                      "local protection error / retry exceeded"});
          }
        }
        if (begin_mitigation(netstop, Manifestation::FailStop,
                             sim_->now() - iter_start_)) {
          in_attempt_ = false;
          co_await sim_until(sim_->now() + pending_rec_.mttr());
          finish_mitigation();
          continue;
        }
        out_.stopped_at_iteration = iter_;
        out_.observed = Manifestation::FailStop;
        finalize_outcome();
        co_return;
      }

      resp = responsible();
      // A host that died mid-transfer reads as fail-stop (its peers got
      // remote errCQEs); anything else that starves the collective past
      // its timeout reads as a hang.
      Manifestation observed =
          resp && resp->spec.mid_transfer_fraction > 0.0 &&
                  resp->spec.manifestation == Manifestation::FailStop &&
                  is_host_side(resp->spec.cause)
              ? Manifestation::FailStop
              : Manifestation::FailHang;
      if (begin_mitigation(resp, observed, sim_->now() - iter_start_)) {
        in_attempt_ = false;
        co_await sim_until(sim_->now() + pending_rec_.mttr());
        finish_mitigation();
        continue;
      }
      out_.stopped_at_iteration = iter_;
      out_.observed = observed;
      finalize_outcome();
      co_return;
    }

    now_ = sim_->now();
    sim_->recycle_finished();

    // Transient faults self-heal after surviving enough iterations.
    for (FaultRt& fr : faults_) {
      if (fr.applied && !fr.healed && fr.spec.repair_iterations >= 0) {
        ++fr.active_iters;
        if (fr.active_iters >= fr.spec.repair_iterations) heal_fault(fr);
      }
    }
    // Permanent gray faults tick too: FlappingLink's duty cycle runs off
    // active_iters (legacy permanent faults never read theirs).
    for (FaultRt& fr : faults_) {
      if (fr.applied && !fr.healed && fr.spec.gray != GrayKind::None &&
          fr.spec.repair_iterations < 0) {
        ++fr.active_iters;
      }
    }

    if (metrics_) metrics_->add("runtime.iterations.committed");
    if (tracer_) {
      // The ring comm phase is the job's collective: one Collective-track
      // span (value = bytes over the fabric) nested under the Workload
      // iteration span, all stamped with the ambient job key.
      tracer_->span(obs::Track::Workload, "compute", iter_start_, max_compute);
      tracer_->span(obs::Track::Collective, "ring_step", comm_start,
                    now_ - comm_start, {},
                    static_cast<double>(cfg_.comm_bytes) * cfg_.hosts);
      tracer_->span(obs::Track::Workload, "iteration", iter_start_, now_ - iter_start_,
                    {}, static_cast<double>(iter_));
    }
    iter_useful_[static_cast<std::size_t>(iter_)] = now_ - iter_start_;
    out_.useful_time += now_ - iter_start_;
    in_attempt_ = false;
    ++iter_;

    // ---- Gray routing control tick (no-op with GrayRoutingConfig off).
    // Runs on the committed iteration's observations, outside the useful
    // wall clock: push stalls are downtime, not training time.
    if (cfg_.gray.mode != GrayRoutingConfig::Mode::Off) {
      const GrayRoutingConfig& gc = cfg_.gray;
      const double thr = gc.wcmp.derate_threshold;
      const bool slow_iter =
          now_ - iter_start_ > healthy_iter_ * gc.arm_slowdown;
      const auto observations = gray_observations();
      if (gc.mode == GrayRoutingConfig::Mode::Wcmp) {
        wcmp_->tick();
        bool changed = false;
        topo::LinkId changed_link = topo::kInvalidLink;
        for (const auto& [l, frac] : observations) {
          // Engage only when the job actually runs slow (clean runs never
          // mitigate on noise); a derated/suppressed link stays under
          // observation until the damper restores it.
          bool tracked = wcmp_->health(l).state != net::WcmpState::Healthy;
          if (!tracked && !slow_iter) continue;
          if (wcmp_->observe(l, frac)) {
            if (changed_link == topo::kInvalidLink || frac < thr) changed_link = l;
            changed = true;
          }
        }
        if (changed) {
          // One centralized weights + ports push per control tick, however
          // many links changed — the churn asymmetry vs. binary isolate.
          std::vector<net::FlowSpec> specs;
          specs.reserve(static_cast<std::size_t>(cfg_.hosts));
          for (int i = 0; i < cfg_.hosts; ++i) specs.push_back(ring_spec(i));
          wcmp_->rebalance(specs);
          for (int i = 0; i < cfg_.hosts; ++i) {
            ring_ports_[static_cast<std::size_t>(i)] =
                specs[static_cast<std::size_t>(i)].src_port;
          }
          ++out_.derates;
          if (metrics_) metrics_->add("runtime.gray.derates");
          int fi = gray_fault_index_for(changed_link);
          if (fi >= 0) {
            MitigationRecord rec;
            rec.fault_index = fi;
            rec.at_iteration = iter_ - 1;
            rec.observed = Manifestation::FailSlow;
            rec.action = MitigationAction::Derate;
            rec.succeeded = true;
            rec.recover_time = gc.derate_push_time;
            trace_mitigation(rec, sim_->now());
            out_.mitigations.push_back(rec);
          }
          co_await sim_until(sim_->now() + gc.derate_push_time);
          out_.downtime += gc.derate_push_time;
          now_ = sim_->now();
        }
        // Ladder escalation: a SlowNic straggler the derate cannot route
        // around climbs from Derate to IsolateRestart.
        if (gc.escalate_after_ticks > 0 && rc.enabled) {
          for (FaultRt& fr : faults_) {
            if (fr.spec.gray != GrayKind::SlowNic || !fr.applied ||
                fr.resolved()) {
              continue;
            }
            bool degraded = false;
            for (const auto& [l, frac] : observations) {
              for (topo::LinkId gl : fr.gray_links) {
                degraded |= l == gl && frac < thr;
              }
            }
            fr.gray_degraded_ticks = degraded ? fr.gray_degraded_ticks + 1 : 0;
            if (fr.gray_degraded_ticks >= gc.escalate_after_ticks &&
                out_.restarts < rc.max_restarts &&
                begin_mitigation(&fr, Manifestation::FailSlow, 0.0)) {
              co_await sim_until(sim_->now() + pending_rec_.mttr());
              finish_mitigation();
            }
          }
        }
      } else {
        // BinaryIsolate baseline: cordon on degradation, restore on
        // recovery — every swing of a flapping link is a fresh drain +
        // config push (the churn WCMP + damping exists to avoid).
        for (const auto& [l, frac] : observations) {
          bool cordoned = std::find(gray_cordoned_.begin(), gray_cordoned_.end(),
                                    l) != gray_cordoned_.end();
          bool degraded = frac < thr;
          if (degraded && !cordoned && slow_iter) {
            sim_->set_link_up(l, false);
            // Pre-flight: never cordon a link the ring cannot live
            // without (a single-homed NIC uplink).
            bool routable = true;
            for (int i = 0; i < cfg_.hosts && routable; ++i) {
              routable = sim_->predict_path(ring_spec(i)).has_value();
            }
            if (!routable) {
              sim_->set_link_up(l, true);
              continue;
            }
            gray_cordoned_.push_back(l);
            downed_links_.push_back(l);
            if (++gray_cordon_count_[l] > 1) ++gray_binary_osc_;
            sim_->reroute_flows();
          } else if (!degraded && cordoned) {
            sim_->set_link_up(l, true);
            gray_cordoned_.erase(
                std::remove(gray_cordoned_.begin(), gray_cordoned_.end(), l),
                gray_cordoned_.end());
            downed_links_.erase(
                std::remove(downed_links_.begin(), downed_links_.end(), l),
                downed_links_.end());
          } else {
            continue;
          }
          ++out_.gray_isolates;
          if (metrics_) metrics_->add("runtime.gray.isolates");
          int fi = gray_fault_index_for(l);
          if (fi >= 0) {
            MitigationRecord rec;
            rec.fault_index = fi;
            rec.at_iteration = iter_ - 1;
            rec.observed = Manifestation::FailSlow;
            rec.action = MitigationAction::Reroute;
            rec.succeeded = true;
            rec.recover_time = gc.isolate_push_time;
            trace_mitigation(rec, sim_->now());
            out_.mitigations.push_back(rec);
          }
          co_await sim_until(sim_->now() + gc.isolate_push_time);
          out_.downtime += gc.isolate_push_time;
          now_ = sim_->now();
        }
      }
    }
  }

  out_.completed = true;
  finalize_outcome();
  // A run that completed but ran slow is a fail-slow manifestation.
  for (const FaultRt& fr : faults_) {
    if (fr.spec.manifestation == Manifestation::FailSlow ||
        fr.spec.cause == RootCause::LinkFlap) {
      out_.observed = Manifestation::FailSlow;
    }
  }
  if (!out_.observed && !out_.mitigations.empty()) {
    out_.observed = out_.mitigations.front().observed;
  }
  co_return;
}

void JobEngine::start() {
  assert(!started_);
  started_ = true;
  RunTask task = run_co();
  handle_ = task.handle;
  handle_.promise().engine = this;
  resume();
}

void JobEngine::resume() {
  if (done_ || !handle_) return;
  // Every event recorded during this slice of execution (including the
  // FluidSim flow events emitted while the engine advances the sim)
  // carries this job's id through the ambient key chain.
  obs::TraceKeys job_keys;
  job_keys.job = cfg_.job_id;
  obs::AmbientScope job_scope(tracer_, job_keys);
  handle_.resume();
  if (handle_.done()) {
    handle_.destroy();
    handle_ = nullptr;
    done_ = true;
    if (pending_exception_) {
      std::rethrow_exception(std::exchange(pending_exception_, nullptr));
    }
  }
}

int JobEngine::checkpoint_iteration() const {
  const int ci = cfg_.recovery.checkpoint_interval;
  return ci > 0 ? (iter_ / ci) * ci : iter_;
}

int JobEngine::rank_of_host(topo::NodeId host) const {
  for (int i = 0; i < cfg_.hosts; ++i) {
    if (hosts_[static_cast<std::size_t>(i)] == host) return i;
  }
  return -1;
}

bool JobEngine::comm_in_flight() const {
  for (net::FlowId fid : flows_) {
    const auto& st = sim_->flow(fid);
    if (st.admitted && st.finish < 0 && !st.aborted) return true;
  }
  return false;
}

bool JobEngine::owns_flow(net::FlowId id) const {
  return std::find(flows_.begin(), flows_.end(), id) != flows_.end();
}

bool JobEngine::crosses_any(std::span<const topo::LinkId> links) const {
  auto hit = [&](const std::vector<topo::LinkId>& path) {
    for (topo::LinkId l : path) {
      for (topo::LinkId d : links) {
        if (l == d) return true;
      }
    }
    return false;
  };
  bool any_live = false;
  for (net::FlowId fid : flows_) {
    const auto& st = sim_->flow(fid);
    if (!st.admitted || st.finish >= 0 || st.aborted) continue;
    any_live = true;
    if (hit(st.path)) return true;
  }
  if (any_live) return false;
  // Nothing in flight: judge by where the next wave would route.
  for (int i = 0; i < cfg_.hosts; ++i) {
    if (auto path = sim_->predict_path(ring_spec(i)); path && hit(*path)) {
      return true;
    }
  }
  return false;
}

int JobEngine::deliver_fault(FaultSpec spec) {
  // A host dying while its flows are in flight reads as fail-stop to its
  // peers (remote errCQEs), the same observation the mid-transfer strike
  // path produces.
  if (is_host_side(spec.cause) && spec.manifestation == Manifestation::FailStop &&
      spec.mid_transfer_fraction <= 0.0 && comm_in_flight()) {
    spec.mid_transfer_fraction = 0.5;
  }
  FaultRt rt;
  rt.spec = spec;
  rt.index = static_cast<int>(faults_.size());
  faults_.push_back(std::move(rt));
  FaultRt& fr = faults_.back();
  if (fr.spec.gray != GrayKind::None) {
    // Gray faults are silent: trace for the ledger, but no syslog — the
    // binary detectors must never see them.
    trace_injection(fr, sim_->now());
    activate_gray(fr);
    fr.applied = true;
    fr.applied_at = sim_->now();
    return fr.index;
  }
  emit_injection_syslog(fr.spec, sim_->now());
  trace_injection(fr, sim_->now());
  fr.applied = true;
  fr.applied_at = sim_->now();
  const FaultSpec& f = fr.spec;
  if (is_host_side(f.cause)) {
    if (f.manifestation == Manifestation::FailStop) {
      topo::NodeId dead = hosts_[static_cast<std::size_t>(f.target_host_rank)];
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        const auto& st = sim_->flow(flows_[i]);
        if (!st.admitted || st.finish >= 0 || st.aborted) continue;
        if (st.spec.src_host == dead || st.spec.dst_host == dead) {
          sim_->abort_flow(flows_[i]);
          ingest(ErrCqeEvent{sim_->now(), static_cast<QpId>(i), static_cast<int>(i),
                             "remote operation error / peer died"});
        }
      }
    } else if (f.manifestation == Manifestation::FailSlow &&
               f.cause != RootCause::PcieDegrade) {
      host_slow_[static_cast<std::size_t>(f.target_host_rank)] = 3.0;
    } else if (f.cause == RootCause::PcieDegrade) {
      apply_network_fault(f);
    }
  }
  return fr.index;
}

void JobEngine::note_inflight_reroute(int fault_index, int moved, bool all_moved) {
  if (!cfg_.recovery.enabled) return;
  FaultRt& fr = faults_[static_cast<std::size_t>(fault_index)];
  out_.reroutes += moved;
  if (metrics_) metrics_->add("runtime.inflight_reroutes",
                              static_cast<std::uint64_t>(moved));
  if (tracer_) {
    obs::TraceKeys k;
    k.fault = fr.index;
    k.job = cfg_.job_id;
    tracer_->instant(obs::Track::Fault, "fault.inflight_reroute", sim_->now(), k,
                     to_string(fr.spec.cause));
  }
  MitigationRecord rec;
  rec.fault_index = fr.index;
  rec.at_iteration = iter_;
  rec.observed = fr.spec.manifestation;
  rec.action = MitigationAction::Reroute;
  rec.succeeded = all_moved;
  out_.mitigations.push_back(rec);
  fr.mitigated = true;
}

void JobEngine::interrupt() {
  if (done_) return;
  if (handle_) {
    handle_.destroy();
    handle_ = nullptr;
  }
  done_ = true;
  if (!started_) {
    finalize_outcome();
    return;
  }
  for (net::FlowId fid : flows_) {
    const auto& st = sim_->flow(fid);
    if (st.admitted && st.finish < 0 && !st.aborted) sim_->abort_flow(fid);
  }
  // The incomplete attempt's wall clock is lost work; committed time is
  // already in iter_useful_ and mitigation stalls already in downtime.
  if (in_attempt_ && !at_boundary_) {
    out_.wasted_time += std::max(0.0, sim_->now() - iter_start_);
  }
  in_attempt_ = false;
  at_boundary_ = false;
  finalize_outcome();
}

int JobEngine::rewind_to_checkpoint(core::Seconds* moved) {
  assert(done_);
  int cp = checkpoint_iteration();
  Seconds m = 0.0;
  for (int k = cp; k < iter_; ++k) {
    m += iter_useful_[static_cast<std::size_t>(k)];
    iter_useful_[static_cast<std::size_t>(k)] = 0.0;
  }
  out_.wasted_time += m;
  out_.useful_time -= m;
  iter_ = cp;
  finalize_outcome();
  if (moved) *moved = m;
  return cp;
}

}  // namespace astral::monitor
