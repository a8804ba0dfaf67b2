#include "monitor/fleet_runtime.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/math.h"
#include "monitor/stream_analyzer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace astral::monitor {

using core::Seconds;

namespace {
constexpr Seconds kNever = std::numeric_limits<double>::infinity();

// Heap order of scheduler events: the earliest (t, kind, seq) on top.
struct LaterEvent {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.t != b.t) return a.t > b.t;
    if (a.kind != b.kind) return a.kind > b.kind;
    return a.seq > b.seq;
  }
};
}  // namespace

const char* to_string(SegmentEnd end) {
  switch (end) {
    case SegmentEnd::Completed: return "completed";
    case SegmentEnd::Aborted: return "aborted";
    case SegmentEnd::Preempted: return "preempted";
    case SegmentEnd::Shrunk: return "shrunk";
    case SegmentEnd::Regrown: return "regrown";
    case SegmentEnd::Deadline: return "deadline";
  }
  return "?";
}

std::vector<FleetJobSpec> generate_arrivals(const ArrivalProcessConfig& cfg) {
  assert(cfg.sizes.size() == cfg.size_weights.size());
  assert(!cfg.sizes.empty());
  assert(cfg.arrival_rate > 0.0);
  core::Rng rng(cfg.seed);
  double weight_sum = 0.0;
  for (double w : cfg.size_weights) weight_sum += w;
  std::vector<FleetJobSpec> out;
  out.reserve(static_cast<std::size_t>(cfg.jobs));
  Seconds t = 0.0;
  for (int i = 0; i < cfg.jobs; ++i) {
    t += rng.exponential(cfg.arrival_rate);
    double u = rng.uniform() * weight_sum;
    std::size_t pick = 0;
    for (; pick + 1 < cfg.sizes.size(); ++pick) {
      if (u < cfg.size_weights[pick]) break;
      u -= cfg.size_weights[pick];
    }
    FleetJobSpec spec;
    spec.job.hosts = cfg.sizes[pick];
    spec.job.iterations = cfg.iterations;
    spec.job.comm_bytes = cfg.comm_bytes;
    spec.job.recovery = cfg.recovery;
    spec.arrival = t;
    spec.priority =
        cfg.priorities.empty()
            ? 0
            : cfg.priorities[static_cast<std::size_t>(
                  rng.uniform_int(static_cast<int>(cfg.priorities.size())))];
    spec.seed = cfg.seed * 1000003ull + static_cast<std::uint64_t>(i) * 7919ull + 1;
    out.push_back(spec);
  }
  return out;
}

core::Json FleetOutcome::to_json() const {
  core::Json j = core::Json::object();
  j["makespan_s"] = makespan;
  j["fleet_goodput"] = fleet_goodput;
  j["allocated_host_hours"] = allocated_host_hours;
  j["useful_host_hours"] = useful_host_hours;
  j["queue_delay_mean_s"] = queue_delay_mean;
  j["queue_delay_p50_s"] = queue_delay_p50;
  j["queue_delay_p99_s"] = queue_delay_p99;
  j["jobs_per_hour"] = jobs_per_hour;
  j["preemption_cost_s"] = preemption_cost;
  j["completion_rate"] = completion_rate;
  core::Json ja = core::Json::array();
  for (const FleetJobLedger& jl : jobs) {
    core::Json o = core::Json::object();
    o["job_id"] = static_cast<double>(jl.job_id);
    o["priority"] = static_cast<double>(jl.priority);
    o["arrival_s"] = jl.arrival;
    o["first_start_s"] = jl.first_start;
    o["finish_s"] = jl.finish;
    o["completed"] = jl.completed;
    o["queue_delay_s"] = jl.queue_delay;
    o["preemptions"] = static_cast<double>(jl.preemptions);
    o["shrinks"] = static_cast<double>(jl.shrinks);
    o["regrows"] = static_cast<double>(jl.regrows);
    o["preempted_cost_s"] = jl.preempted_cost;
    o["committed_iterations"] =
        static_cast<double>(jl.merged.committed_iterations);
    o["useful_s"] = jl.merged.useful_time;
    o["wasted_s"] = jl.merged.wasted_time;
    o["downtime_s"] = jl.merged.downtime;
    o["goodput"] = jl.merged.goodput;
    core::Json segs = core::Json::array();
    for (const SegmentRecord& s : jl.segments) {
      core::Json so = core::Json::object();
      so["start_s"] = s.start_time;
      so["end_s"] = s.end_time;
      so["start_iteration"] = static_cast<double>(s.start_iteration);
      so["hosts"] = static_cast<double>(s.hosts);
      so["end"] = std::string(to_string(s.end));
      so["committed_iterations"] =
          static_cast<double>(s.outcome.committed_iterations);
      so["mitigations"] = static_cast<double>(s.outcome.mitigations.size());
      segs.push_back(std::move(so));
    }
    o["segments"] = std::move(segs);
    ja.push_back(std::move(o));
  }
  j["jobs"] = std::move(ja);
  core::Json jf = core::Json::array();
  for (const FleetFaultLedger& fl : faults) {
    core::Json o = core::Json::object();
    o["at_time_s"] = fl.fault.at_time;
    o["cause"] = std::string(to_string(fl.fault.cause));
    o["manifestation"] = std::string(to_string(fl.fault.manifestation));
    o["switch_scope"] = fl.fault.switch_scope;
    o["heal_after_s"] = fl.fault.heal_after;
    core::Json touched = core::Json::array();
    for (int id : fl.jobs_touched) touched.push_back(static_cast<double>(id));
    o["jobs_touched"] = std::move(touched);
    o["host_hours_lost"] = fl.host_hours_lost;
    jf.push_back(std::move(o));
  }
  j["faults"] = std::move(jf);
  return j;
}

FleetRuntime::FleetRuntime(topo::Fabric& fabric, FleetConfig cfg)
    : fabric_(fabric), cfg_(cfg), rng_(cfg.seed) {
  sim_ = std::make_unique<net::FluidSim>(fabric_);
  free_.assign(fabric_.topo().hosts().size(), 1);
}

void FleetRuntime::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  sim_->set_tracer(tracer);
}

void FleetRuntime::set_metrics(obs::Metrics* metrics) {
  metrics_ = metrics;
  sim_->set_metrics(metrics);
}

int FleetRuntime::submit(FleetJobSpec spec, std::vector<FaultSpec> local_faults) {
  assert(!ran_);
  int id = static_cast<int>(jobs_.size());
  if (spec.job.recovery.enabled) {
    if (auto err = validate_recovery(spec.job.recovery)) {
      throw std::invalid_argument("FleetRuntime::submit: job " +
                                  std::to_string(id) +
                                  " has an invalid RecoveryConfig: " + *err);
    }
  }
  spec.job.job_id = id;
  jobs_.emplace_back();
  JobRt& job = jobs_.back();
  job.spec = std::move(spec);
  job.local_faults = std::move(local_faults);
  job.ledger.job_id = id;
  job.ledger.priority = job.spec.priority;
  job.ledger.arrival = job.spec.arrival;
  push_event(job.spec.arrival, EventKind::Arrival, id);
  return id;
}

void FleetRuntime::inject(const FleetFault& fault) {
  assert(!ran_);
  assert(fault.target_host >= 0 || fault.target_link != topo::kInvalidLink);
  assert(fault.target_host < 0 ||
         static_cast<std::size_t>(fault.target_host) < free_.size());
  int id = static_cast<int>(faults_.size());
  faults_.push_back(FleetFaultLedger{fault, {}, 0.0});
  fault_links_.emplace_back();
  push_event(fault.at_time, EventKind::FaultStrike, id);
}

const TelemetryStore* FleetRuntime::job_telemetry(int job_id) const {
  const JobRt& job = jobs_[static_cast<std::size_t>(job_id)];
  if (job.engine) return &job.engine->store();
  if (!job.retired.empty()) return &job.retired.back()->store();
  return nullptr;
}

void FleetRuntime::push_event(Seconds t, EventKind kind, int idx) {
  events_.push_back(Event{t, kind, idx, event_seq_++});
  std::push_heap(events_.begin(), events_.end(), LaterEvent{});
}

bool FleetRuntime::pop_next_event(Seconds before_or_at, Event* out) {
  if (events_.empty() || events_.front().t > before_or_at) return false;
  std::pop_heap(events_.begin(), events_.end(), LaterEvent{});
  *out = events_.back();
  events_.pop_back();
  return true;
}

bool FleetRuntime::admit(JobRt& job, std::vector<int> hosts) {
  job.host_idx = std::move(hosts);
  job.host_nodes.clear();
  for (int h : job.host_idx) {
    free_[static_cast<std::size_t>(h)] = 0;
    job.host_nodes.push_back(
        fabric_.topo().hosts()[static_cast<std::size_t>(h)]);
  }
  if (metrics_) metrics_->add("fleet.admissions");
  if (job.ledger.first_start < 0.0) {
    job.ledger.first_start = sim_->now();
    job.ledger.queue_delay = sim_->now() - job.ledger.arrival;
    if (tracer_ && job.ledger.queue_delay > 0.0) {
      obs::TraceKeys k;
      k.job = job.ledger.job_id;
      tracer_->span(obs::Track::Workload, "fleet.queued", job.ledger.arrival,
                    job.ledger.queue_delay, k);
    }
    start_segment(job);
  } else {
    // Re-admission (post-preemption / shrink / regrow): the next segment
    // pays the checkpoint-reload gap before compute resumes.
    job.state = JobState::Starting;
    job.ledger.merged.downtime += job.spec.job.recovery.restart_time;
    push_event(sim_->now() + job.spec.job.recovery.restart_time,
               EventKind::StartSegment, job.ledger.job_id);
  }
  return true;
}

void FleetRuntime::start_segment(JobRt& job) {
  job.segment_start = sim_->now();
  job.segment_start_iteration = job.start_iteration;
  JobConfig jc = job.spec.job;
  jc.hosts = static_cast<int>(job.host_nodes.size());
  // Segment 0 uses the tenant seed verbatim (the ClusterRuntime
  // equivalence contract); later segments decorrelate their noise.
  std::uint64_t salt = static_cast<std::uint64_t>(job.ledger.segments.size());
  std::uint64_t seed = job.spec.seed + salt * 0x9e3779b97f4a7c15ull;
  job.engine = std::make_unique<JobEngine>(fabric_, *sim_, jc, seed,
                                           job.host_nodes, job.start_iteration);
  job.engine->set_tracer(tracer_);
  job.engine->set_metrics(metrics_);
  if (stream_) job.engine->set_stream_analyzer(stream_);
  job.fault_map.clear();
  if (!job.local_faults_spent) {
    for (const FaultSpec& f : job.local_faults) job.engine->inject(f);
    job.local_faults_spent = true;
  }
  const int id = job.ledger.job_id;
  const auto at = std::lower_bound(running_.begin(), running_.end(), id);
  if (at == running_.end() || *at != id) running_.insert(at, id);
  job.state = JobState::Running;
  job.engine->start();
  if (job.engine->done()) handle_engine_done(job);
}

void FleetRuntime::try_admit() {
  if (sim_->now() >= cfg_.drain_deadline) return;
  std::vector<int> queued;
  for (const JobRt& j : jobs_) {
    if (j.state == JobState::Queued && j.spec.arrival <= sim_->now()) {
      queued.push_back(j.ledger.job_id);
    }
  }
  std::sort(queued.begin(), queued.end(), [&](int a, int b) {
    const JobRt& ja = jobs_[static_cast<std::size_t>(a)];
    const JobRt& jb = jobs_[static_cast<std::size_t>(b)];
    if (ja.spec.priority != jb.spec.priority) {
      return ja.spec.priority > jb.spec.priority;
    }
    if (ja.spec.arrival != jb.spec.arrival) {
      return ja.spec.arrival < jb.spec.arrival;
    }
    return a < b;
  });
  for (int id : queued) {
    JobRt& job = jobs_[static_cast<std::size_t>(id)];
    if (job.state != JobState::Queued) continue;
    int n = job.spec.job.hosts;
    if (static_cast<std::size_t>(n) > free_.size()) {
      finish_job(job, false);  // can never fit this fabric
      continue;
    }
    std::vector<int> hosts =
        parallel::place_hosts(fabric_, n, cfg_.placement, free_);
    if (!hosts.empty()) {
      admit(job, std::move(hosts));
      continue;  // backfill: keep scanning lower-priority jobs
    }
    if (!cfg_.preemption) continue;
    // Victim scan: lower-priority running tenants, cheapest first (lowest
    // priority, then youngest), tentatively freed until the demand fits.
    std::vector<int> pool;
    for (const JobRt& j : jobs_) {
      if (j.state == JobState::Running && j.spec.priority < job.spec.priority) {
        pool.push_back(j.ledger.job_id);
      }
    }
    std::sort(pool.begin(), pool.end(), [&](int a, int b) {
      const JobRt& ja = jobs_[static_cast<std::size_t>(a)];
      const JobRt& jb = jobs_[static_cast<std::size_t>(b)];
      if (ja.spec.priority != jb.spec.priority) {
        return ja.spec.priority < jb.spec.priority;
      }
      if (ja.spec.arrival != jb.spec.arrival) {
        return ja.spec.arrival > jb.spec.arrival;
      }
      return a > b;
    });
    std::vector<char> tentative = free_;
    std::vector<int> victims;
    std::vector<int> fit;
    for (int vid : pool) {
      const JobRt& v = jobs_[static_cast<std::size_t>(vid)];
      for (int h : v.host_idx) tentative[static_cast<std::size_t>(h)] = 1;
      victims.push_back(vid);
      fit = parallel::place_hosts(fabric_, n, cfg_.placement, tentative);
      if (!fit.empty()) break;
    }
    if (fit.empty()) continue;  // even preempting everything doesn't help
    for (int vid : victims) preempt(jobs_[static_cast<std::size_t>(vid)], id);
    hosts = parallel::place_hosts(fabric_, n, cfg_.placement, free_);
    assert(!hosts.empty());
    admit(job, std::move(hosts));
  }
}

void FleetRuntime::preempt(JobRt& victim, int for_job) {
  assert(victim.state == JobState::Running && victim.engine);
  (void)for_job;
  obs::TraceKeys k;
  k.job = victim.ledger.job_id;
  {
    obs::AmbientScope scope(tracer_, k);
    victim.engine->interrupt();
  }
  Seconds moved = 0.0;
  int cp = victim.engine->rewind_to_checkpoint(&moved);
  victim.start_iteration = cp;
  victim.ledger.preempted_cost += moved;
  ++victim.ledger.preemptions;
  if (metrics_) metrics_->add("fleet.preemptions");
  if (tracer_) {
    tracer_->instant(obs::Track::Workload, "fleet.preempt", sim_->now(), k);
  }
  retire_segment(victim, SegmentEnd::Preempted);
  for (int h : victim.host_idx) free_[static_cast<std::size_t>(h)] = 1;
  victim.host_idx.clear();
  victim.host_nodes.clear();
  victim.state = JobState::Queued;
}

void FleetRuntime::retire_segment(JobRt& job, SegmentEnd end) {
  assert(job.engine);
  JobEngine& e = *job.engine;
  SegmentRecord seg;
  seg.start_time = job.segment_start;
  seg.end_time = sim_->now();
  seg.start_iteration = job.segment_start_iteration;
  seg.hosts = static_cast<int>(job.host_nodes.size());
  seg.end = end;
  seg.outcome = e.outcome();
  job.ledger.segments.push_back(seg);

  RunOutcome& m = job.ledger.merged;
  if (job.ledger.segments.size() == 1) {
    // Single segment: the merged ledger IS the engine's outcome, field
    // for field — the bit-identity contract with ClusterRuntime::run().
    m = seg.outcome;
  } else {
    for (const MitigationRecord& rec : seg.outcome.mitigations) {
      m.mitigations.push_back(rec);
    }
    m.restarts += seg.outcome.restarts;
    m.retries += seg.outcome.retries;
    m.reroutes += seg.outcome.reroutes;
    m.useful_time += seg.outcome.useful_time;
    m.wasted_time += seg.outcome.wasted_time;
    m.downtime += seg.outcome.downtime;
    m.completed = seg.outcome.completed;
    m.stopped_at_iteration = seg.outcome.stopped_at_iteration;
    m.committed_iterations = seg.outcome.committed_iterations;
    if (seg.outcome.observed) m.observed = seg.outcome.observed;
    m.makespan = seg.start_time + seg.outcome.makespan - job.ledger.first_start;
    m.goodput = 0.0;
    if (m.makespan > 0.0) {
      m.goodput = std::min(1.0, static_cast<double>(m.committed_iterations) *
                                    e.healthy_iteration() / m.makespan);
    }
  }
  // Blast-radius attribution: mitigation stalls caused by fleet faults
  // cost the whole segment's allocation for their MTTR.
  for (const MitigationRecord& rec : seg.outcome.mitigations) {
    auto it = job.fault_map.find(rec.fault_index);
    if (it != job.fault_map.end()) {
      charge_blast(it->second, host_hours(rec.mttr(), seg.hosts));
    }
  }
  e.flush_telemetry();
  // Post-flush, so the final online diagnosis saw every held-back
  // collector batch the batch analyzer would see.
  e.set_stream_analyzer(nullptr);
  // Restore this segment's Reroute-cordoned links through the shared sim
  // (capacity AND routing: the fabric outlives the tenant).
  for (topo::LinkId l : e.downed_links()) sim_->set_link_up(l, true);
  e.restore_downed_links();
  if (tracer_) {
    obs::TraceKeys k;
    k.job = job.ledger.job_id;
    tracer_->span(obs::Track::Workload, "fleet.segment", seg.start_time,
                  seg.end_time - seg.start_time, k,
                  static_cast<double>(seg.hosts), to_string(end));
  }
  job.retired.push_back(std::move(job.engine));
}

void FleetRuntime::finish_job(JobRt& job, bool completed) {
  job.ledger.completed = completed;
  job.ledger.finish = sim_->now();
  job.state = JobState::Done;
  for (int h : job.host_idx) free_[static_cast<std::size_t>(h)] = 1;
  for (int h : job.reserved) free_[static_cast<std::size_t>(h)] = 1;
  job.reserved.clear();
  job.host_idx.clear();
  job.host_nodes.clear();
  try_admit();
}

void FleetRuntime::heal_cordon(int host) {
  auto it = cordon_owner_.find(host);
  if (it != cordon_owner_.end()) {
    JobRt& job = jobs_[static_cast<std::size_t>(it->second)];
    cordon_owner_.erase(it);
    if (job.state != JobState::Done && job.regrow_pending) {
      // The replacement goes back to the tenant it was pulled from; it
      // rejoins the job at its next iteration boundary (try_regrow).
      job.reserved.push_back(host);
      return;
    }
  }
  free_[static_cast<std::size_t>(host)] = 1;
  try_admit();
}

void FleetRuntime::handle_engine_done(JobRt& job) {
  const RunOutcome& o = job.engine->outcome();
  if (o.completed) {
    retire_segment(job, SegmentEnd::Completed);
    finish_job(job, true);
    return;
  }
  // Terminal stop. Elastic way out: a host-side fault that exhausted the
  // restart budget lets the job shed the bad host and continue smaller.
  bool shrinkable = cfg_.elastic.enabled && !o.mitigations.empty() &&
                    o.mitigations.back().action == MitigationAction::Abort;
  int dead_rank = -1;
  int fault_idx = -1;
  if (shrinkable) {
    fault_idx = o.mitigations.back().fault_index;
    const FaultSpec& fs = job.engine->fault_spec(fault_idx);
    if (is_host_side(fs.cause)) {
      dead_rank = fs.target_host_rank;
    } else {
      shrinkable = false;
    }
  }
  int cur_hosts = static_cast<int>(job.host_nodes.size());
  int min_hosts = std::max(2, cfg_.elastic.min_hosts);
  if (cur_hosts - 1 < min_hosts) shrinkable = false;
  if (!shrinkable) {
    retire_segment(job, SegmentEnd::Aborted);
    finish_job(job, false);
    return;
  }

  Seconds moved = 0.0;
  int cp = job.engine->rewind_to_checkpoint(&moved);
  job.start_iteration = cp;
  auto it = job.fault_map.find(fault_idx);
  if (it != job.fault_map.end()) {
    // The shrink's rewind + restart gap are part of the fault's blast.
    charge_blast(it->second,
                 host_hours(moved + job.spec.job.recovery.restart_time, cur_hosts));
  }
  retire_segment(job, SegmentEnd::Shrunk);
  // Cordon the dead host: it leaves the job but NOT the free pool until
  // it heals (hardware swap).
  int dead_idx = job.host_idx[static_cast<std::size_t>(dead_rank)];
  job.host_idx.erase(job.host_idx.begin() + dead_rank);
  job.host_nodes.erase(job.host_nodes.begin() + dead_rank);
  cordon_owner_[dead_idx] = job.ledger.job_id;
  push_event(sim_->now() + cfg_.elastic.cordon_heal_time, EventKind::CordonHeal,
             dead_idx);
  ++job.ledger.shrinks;
  job.regrow_pending = true;
  job.ledger.merged.downtime += job.spec.job.recovery.restart_time;
  if (metrics_) metrics_->add("fleet.shrinks");
  if (tracer_) {
    obs::TraceKeys k;
    k.job = job.ledger.job_id;
    tracer_->instant(obs::Track::Workload, "fleet.shrink", sim_->now(), k);
  }
  job.state = JobState::Starting;
  push_event(sim_->now() + job.spec.job.recovery.restart_time,
             EventKind::StartSegment, job.ledger.job_id);
}

bool FleetRuntime::try_regrow(JobRt& job) {
  int full = job.spec.job.hosts;
  if (static_cast<int>(job.host_nodes.size()) >= full) {
    // Already back at full size (a preemption round-trip re-admitted the
    // job at its requested size); release any replacement still held.
    job.regrow_pending = false;
    if (!job.reserved.empty()) {
      for (int h : job.reserved) free_[static_cast<std::size_t>(h)] = 1;
      job.reserved.clear();
      try_admit();
    }
    return false;
  }
  std::vector<char> tentative = free_;
  for (int h : job.host_idx) tentative[static_cast<std::size_t>(h)] = 1;
  for (int h : job.reserved) tentative[static_cast<std::size_t>(h)] = 1;
  std::vector<int> hosts =
      parallel::place_hosts(fabric_, full, cfg_.placement, tentative);
  if (hosts.empty()) return false;
  // Regrow transition at a clean boundary: no attempt in flight, so the
  // only charge is the restart gap + any uncheckpointed iterations.
  obs::TraceKeys k;
  k.job = job.ledger.job_id;
  {
    obs::AmbientScope scope(tracer_, k);
    job.engine->interrupt();
  }
  int cp = job.engine->rewind_to_checkpoint();
  job.start_iteration = cp;
  retire_segment(job, SegmentEnd::Regrown);
  for (int h : job.host_idx) free_[static_cast<std::size_t>(h)] = 1;
  for (int h : job.reserved) free_[static_cast<std::size_t>(h)] = 1;
  job.reserved.clear();
  job.host_idx.clear();
  job.host_nodes.clear();
  ++job.ledger.regrows;
  job.regrow_pending = false;
  if (metrics_) metrics_->add("fleet.regrows");
  if (tracer_) {
    tracer_->instant(obs::Track::Workload, "fleet.regrow", sim_->now(), k);
  }
  admit(job, std::move(hosts));  // schedules the restart-delayed segment
  try_admit();                   // the freed fragment may fit someone else
  return true;
}

int FleetRuntime::fault_pod(const FleetFault& f) const {
  const auto& topo = fabric_.topo();
  if (f.target_link != topo::kInvalidLink) return link_pod(topo, f.target_link);
  if (f.target_host >= 0 &&
      f.target_host < static_cast<int>(topo.hosts().size())) {
    return topo.node(topo.hosts()[static_cast<std::size_t>(f.target_host)]).pod;
  }
  return 0;
}

void FleetRuntime::charge_blast(int fault_id, double hours) {
  FleetFaultLedger& fl = faults_[static_cast<std::size_t>(fault_id)];
  fl.host_hours_lost += hours;
  if (stream_) stream_->note_blast_radius(fault_pod(fl.fault), hours);
}

void FleetRuntime::strike_fleet_fault(int fault_id) {
  FleetFaultLedger& fl = faults_[static_cast<std::size_t>(fault_id)];
  const FleetFault& f = fl.fault;
  if (metrics_) metrics_->add("fleet.faults.injected");
  // Blast-radius export once the strike's delivery is known: jobs
  // touched as a fleet counter, and the fault landing in its pod's
  // streaming rollup.
  auto export_blast = [&] {
    if (metrics_) metrics_->add("fleet.blast.jobs_touched", fl.jobs_touched.size());
    if (stream_) stream_->note_fleet_fault(fault_pod(f), fl.jobs_touched.size());
  };

  if (f.target_host >= 0) {
    // Host fault: lands on whoever owns the host right now.
    topo::NodeId host =
        fabric_.topo().hosts()[static_cast<std::size_t>(f.target_host)];
    for (JobRt& job : jobs_) {
      if (job.state != JobState::Running || !job.engine) continue;
      int rank = job.engine->rank_of_host(host);
      if (rank < 0) continue;
      FaultSpec spec;
      spec.cause = f.cause;
      spec.manifestation = f.manifestation;
      spec.target_host_rank = rank;
      spec.at_iteration = job.engine->current_iteration();
      spec.degrade_factor = f.degrade_factor;
      if (f.heal_after >= 0.0) spec.repair_iterations = 1;
      obs::TraceKeys k;
      k.job = job.ledger.job_id;
      obs::AmbientScope scope(tracer_, k);
      int idx = job.engine->deliver_fault(spec);
      job.fault_map[idx] = fault_id;
      fl.jobs_touched.push_back(job.ledger.job_id);
      export_blast();
      return;  // a host belongs to at most one tenant
    }
    // Unowned host: cordon it so nobody lands on dead hardware.
    if (free_[static_cast<std::size_t>(f.target_host)]) {
      free_[static_cast<std::size_t>(f.target_host)] = 0;
      if (f.heal_after >= 0.0) {
        push_event(sim_->now() + f.heal_after, EventKind::CordonHeal,
                   f.target_host);
      }
    }
    export_blast();
    return;
  }

  assert(f.target_link != topo::kInvalidLink);
  if (f.manifestation == Manifestation::FailSlow) {
    // Soft fault: capacity degrades; tenants crossing it just run slow.
    for (JobRt& job : jobs_) {
      if (job.state != JobState::Running || !job.engine) continue;
      topo::LinkId one[] = {f.target_link};
      if (!job.engine->crosses_any(one)) continue;
      FaultSpec spec;
      spec.cause = f.cause;
      spec.manifestation = f.manifestation;
      spec.target_link = f.target_link;
      spec.at_iteration = job.engine->current_iteration();
      spec.degrade_factor = f.degrade_factor;
      if (f.heal_after >= 0.0) spec.repair_iterations = 1;
      obs::TraceKeys k;
      k.job = job.ledger.job_id;
      obs::AmbientScope scope(tracer_, k);
      int idx = job.engine->deliver_fault(spec);
      job.fault_map[idx] = fault_id;
      fl.jobs_touched.push_back(job.ledger.job_id);
    }
    sim_->degrade_link(f.target_link, f.degrade_factor);
    if (f.heal_after >= 0.0) {
      push_event(sim_->now() + f.heal_after, EventKind::FaultHeal, fault_id);
    }
    export_blast();
    return;
  }

  // Hard network fault: the blast set is every link the failure takes
  // down (one port, or the whole switch). Membership is judged on
  // pre-fault paths — crosses_any must run before the links go dark.
  auto& topo = fabric_.topo();
  std::vector<topo::LinkId> candidates;
  if (f.switch_scope) {
    const auto& link = topo.link(f.target_link);
    topo::NodeId sw =
        topo.node(link.src).kind == topo::NodeKind::Host ? link.dst : link.src;
    for (topo::LinkId l : topo.out_links(sw)) candidates.push_back(l);
    for (topo::LinkId l : topo.in_links(sw)) candidates.push_back(l);
  } else {
    candidates.push_back(f.target_link);
  }
  std::vector<int> affected;
  for (JobRt& job : jobs_) {
    if (job.state != JobState::Running || !job.engine) continue;
    if (job.engine->crosses_any(candidates)) {
      affected.push_back(job.ledger.job_id);
    }
  }
  std::vector<topo::LinkId>& downed =
      fault_links_[static_cast<std::size_t>(fault_id)];
  for (topo::LinkId l : candidates) {
    if (topo.link(l).up) {
      sim_->set_link_up(l, false);
      downed.push_back(l);
    }
  }
  // ONE global in-flight failover for the shared fabric; each tenant's
  // ledger is credited with its own share of moved/stranded flows.
  auto rep = sim_->reroute_flows();
  for (int id : affected) {
    JobRt& job = jobs_[static_cast<std::size_t>(id)];
    int moved = 0;
    int stranded = 0;
    for (net::FlowId fid : rep.rerouted) {
      if (job.engine->owns_flow(fid)) ++moved;
    }
    for (net::FlowId fid : rep.stranded) {
      if (job.engine->owns_flow(fid)) ++stranded;
    }
    FaultSpec spec;
    spec.cause = f.cause;
    spec.manifestation = f.manifestation;
    spec.target_link = f.target_link;
    spec.switch_scope = f.switch_scope;
    spec.at_iteration = job.engine->current_iteration();
    if (f.heal_after >= 0.0) spec.repair_iterations = 1;
    obs::TraceKeys k;
    k.job = job.ledger.job_id;
    obs::AmbientScope scope(tracer_, k);
    int idx = job.engine->deliver_fault(spec);
    job.fault_map[idx] = fault_id;
    fl.jobs_touched.push_back(job.ledger.job_id);
    if (moved + stranded > 0) {
      job.engine->note_inflight_reroute(idx, moved, stranded == 0);
    }
  }
  for (net::FlowId fid : rep.stranded) sim_->abort_flow(fid);
  if (f.heal_after >= 0.0) {
    push_event(sim_->now() + f.heal_after, EventKind::FaultHeal, fault_id);
  }
  export_blast();
}

void FleetRuntime::heal_fleet_fault(int fault_id) {
  const FleetFault& f = faults_[static_cast<std::size_t>(fault_id)].fault;
  if (f.manifestation == Manifestation::FailSlow &&
      f.target_link != topo::kInvalidLink) {
    sim_->degrade_link(f.target_link, 1.0);
    return;
  }
  for (topo::LinkId l : fault_links_[static_cast<std::size_t>(fault_id)]) {
    sim_->set_link_up(l, true);
  }
  fault_links_[static_cast<std::size_t>(fault_id)].clear();
  try_admit();
}

void FleetRuntime::resume_engine(JobRt& job) {
  if (job.engine->at_boundary() && job.regrow_pending && try_regrow(job)) {
    return;
  }
  job.engine->resume();
  if (job.engine->done()) handle_engine_done(job);
}

FleetOutcome FleetRuntime::run() {
  assert(!ran_);
  ran_ = true;

  while (true) {
    // The earliest-waking running job; ties go to the lowest id.
    JobRt* next = nullptr;
    std::size_t kept = 0;
    for (const int id : running_) {
      JobRt& j = jobs_[static_cast<std::size_t>(id)];
      if (j.state != JobState::Running || !j.engine || j.engine->done()) {
        continue;
      }
      running_[kept++] = id;
      if (!next || j.engine->wake_time() < next->engine->wake_time()) {
        next = &j;
      }
    }
    running_.resize(kept);
    Seconds wake = next ? next->engine->wake_time() : kNever;
    Event ev;
    // Events at or before the earliest engine wake run first; otherwise
    // the earliest engine advances the shared sim to its awaited time
    // (boundary-parked engines have wake == park time, so the sim never
    // outruns a parked iteration start).
    if (pop_next_event(wake, &ev)) {
      if (ev.t > cfg_.drain_deadline) break;
      sim_->run(ev.t);
      switch (ev.kind) {
        case EventKind::FaultHeal:
          heal_fleet_fault(ev.idx);
          break;
        case EventKind::CordonHeal:
          heal_cordon(ev.idx);
          break;
        case EventKind::FaultStrike:
          strike_fleet_fault(ev.idx);
          break;
        case EventKind::Arrival:
          try_admit();
          break;
        case EventKind::StartSegment: {
          JobRt& job = jobs_[static_cast<std::size_t>(ev.idx)];
          if (job.state == JobState::Starting) start_segment(job);
          break;
        }
      }
      continue;
    }
    if (!next) break;
    if (wake > cfg_.drain_deadline) break;
    resume_engine(*next);
  }

  // Drain: anything still alive is cut off at the deadline; anything
  // still queued never fit (or the fleet stopped first).
  for (JobRt& job : jobs_) {
    if (job.state == JobState::Done) continue;
    if (job.state == JobState::Running && job.engine && !job.engine->done()) {
      obs::TraceKeys k;
      k.job = job.ledger.job_id;
      {
        obs::AmbientScope scope(tracer_, k);
        job.engine->interrupt();
      }
      retire_segment(job, SegmentEnd::Deadline);
    }
    job.ledger.completed = false;
    job.ledger.finish = job.ledger.first_start >= 0.0 ? sim_->now() : -1.0;
    for (int h : job.host_idx) free_[static_cast<std::size_t>(h)] = 1;
    for (int h : job.reserved) free_[static_cast<std::size_t>(h)] = 1;
    job.reserved.clear();
    job.host_idx.clear();
    job.host_nodes.clear();
    job.state = JobState::Done;
  }

  FleetOutcome out;
  out.faults = faults_;
  double completed = 0.0;
  std::vector<double> delays;
  for (JobRt& job : jobs_) {
    out.jobs.push_back(job.ledger);
    if (job.ledger.completed) completed += 1.0;
    if (job.ledger.first_start >= 0.0) {
      delays.push_back(job.ledger.queue_delay);
      out.makespan = std::max(out.makespan, job.ledger.finish);
    }
    for (const SegmentRecord& seg : job.ledger.segments) {
      out.allocated_host_hours +=
          host_hours(seg.end_time - seg.start_time, seg.hosts);
      out.useful_host_hours += host_hours(seg.outcome.useful_time, seg.hosts);
    }
    out.preemption_cost += job.ledger.preempted_cost;
  }
  if (out.allocated_host_hours > 0.0) {
    out.fleet_goodput = out.useful_host_hours / out.allocated_host_hours;
  }
  if (!delays.empty()) {
    double sum = 0.0;
    for (double d : delays) sum += d;
    out.queue_delay_mean = sum / static_cast<double>(delays.size());
    std::sort(delays.begin(), delays.end());
    out.queue_delay_p50 = core::percentile(delays, 50.0);
    out.queue_delay_p99 = core::percentile(delays, 99.0);
  }
  if (out.makespan > 0.0) {
    out.jobs_per_hour = completed / (out.makespan / 3600.0);
  }
  if (!jobs_.empty()) {
    out.completion_rate = completed / static_cast<double>(jobs_.size());
  }
  // Final blast-radius ledger export: totals as gauges next to the
  // per-strike counters, so dashboards see jobs touched AND host-hours
  // lost without reading FleetOutcome.
  if (metrics_) {
    double hours = 0.0;
    std::size_t touched = 0;
    for (const FleetFaultLedger& fl : faults_) {
      hours += fl.host_hours_lost;
      touched += fl.jobs_touched.size();
    }
    metrics_->set_gauge("fleet.blast.host_hours_lost", hours);
    metrics_->set_gauge("fleet.blast.jobs_touched_total",
                        static_cast<double>(touched));
    metrics_->set_gauge("fleet.blast.faults", static_cast<double>(faults_.size()));
  }
  return out;
}

}  // namespace astral::monitor
