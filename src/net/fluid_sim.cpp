#include "net/fluid_sim.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "net/shard_solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace astral::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Queue order of pending arrivals: the earlier start, then the lower id,
// so flows that start together are admitted in injection order whatever
// else is pending.
struct EarlierStart {
  template <typename P>
  bool operator()(const P& a, const P& b) const {
    return a.start < b.start || (a.start == b.start && a.id < b.id);
  }
};

// Makes room for `n` more elements, growing geometrically, so a wave of
// injections moves each per-flow table at most once.
template <typename V>
void reserve_more(V& v, std::size_t n) {
  if (v.capacity() - v.size() < n) v.reserve(std::max(v.size() + n, 2 * v.capacity()));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A mark count from a mark mass: its ceiling, saturated to the counter.
std::uint64_t count_of(double mass) {
  if (!(mass > 0)) return 0;
  if (mass >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(std::ceil(mass));
}

// Share of a link's effective capacity in use, as stats integrate it.
double util_of(double rate, double cap) { return cap > 0 ? std::min(1.0, rate / cap) : 0.0; }

// Runs one solve; with a histogram attached, records its wall time there.
template <typename Solve>
void timed_solve(obs::Histogram* hist, Solve&& solve) {
  if (hist == nullptr) {
    solve();
    return;
  }
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  solve();
  hist->record(std::chrono::duration<double, std::micro>(clock::now() - t0).count());
}
}  // namespace

FluidSim::FluidSim(topo::Fabric& fabric, Config cfg)
    : fabric_(fabric), router_(fabric), cfg_(cfg) {
  const std::size_t nlinks = fabric_.topo().link_count();
  stats_.resize(nlinks);
  mass_.resize(nlinks);
  touched_.reserve(nlinks);
  touched_flag_.assign(nlinks, 0);
  degrade_.assign(nlinks, 1.0);
  effcap_.resize(nlinks);
  for (std::size_t l = 0; l < nlinks; ++l) {
    effcap_[l] = fabric_.topo().link(static_cast<topo::LinkId>(l)).capacity;
  }
  live_pos_.assign(nlinks, kNotLive);
  pfc_sum_.assign(fabric_.topo().node_count(), 0.0);
  shard_ = std::make_unique<ShardSolver>(*this);
}

FluidSim::~FluidSim() = default;

std::size_t FluidSim::solver_shard_count() const { return shard_->shard_count(); }

void FluidSim::debug_set_build_epoch(std::uint64_t value) {
  shard_->debug_set_build_epoch(value);
}

std::optional<std::vector<topo::LinkId>> FluidSim::predict_path(const FlowSpec& spec) const {
  return router_.route(spec, router_.tuple_for(spec));
}

FlowId FluidSim::inject_impl(const FlowSpec& spec) {
  FlowState st;
  st.spec = spec;
  st.tuple = router_.tuple_for(spec);
  auto path = router_.route(spec, st.tuple);
  if (path) {
    st.path = std::move(*path);
    st.admitted = true;
  } else {
    st.admitted = false;
    st.finish = spec.start;  // Unroutable: surfaces immediately to caller.
  }
  FlowId id = static_cast<FlowId>(flows_.size());
  flows_.push_back(std::move(st));
  drain_.push_back({static_cast<double>(spec.size), 0.0, spec.start});
  rank_.push_back(0);
  return id;
}

FlowId FluidSim::inject(const FlowSpec& spec) {
  const FlowId id = inject_impl(spec);
  if (flows_[id].admitted) {
    // Its id is the highest, so its place is after every queued entry
    // that starts no later.
    const auto at = std::upper_bound(
        pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_), pending_.end(), spec.start,
        [](core::Seconds start, const Pending& p) { return start < p.start; });
    pending_.insert(at, {spec.start, id});
  }
  return id;
}

std::vector<FlowId> FluidSim::inject_batch(std::span<const FlowSpec> specs) {
  std::vector<FlowId> ids;
  ids.reserve(specs.size());
  reserve_more(flows_, specs.size());
  reserve_more(drain_, specs.size());
  reserve_more(rank_, specs.size());
  reserve_more(pending_, specs.size());
  const auto head = static_cast<std::ptrdiff_t>(pending_head_);
  const auto tail = static_cast<std::ptrdiff_t>(pending_.size());
  for (const FlowSpec& s : specs) {
    ids.push_back(inject_impl(s));
    if (flows_[ids.back()].admitted) pending_.push_back({s.start, ids.back()});
  }
  // A wave in start order that starts no earlier than the queued tail is
  // in place already; any other is sorted and merged into the queue.
  const auto wave = pending_.begin() + tail;
  if (!std::is_sorted(tail > head ? wave - 1 : wave, pending_.end(), EarlierStart{})) {
    std::sort(wave, pending_.end(), EarlierStart{});
    std::inplace_merge(pending_.begin() + head, wave, pending_.end(), EarlierStart{});
  }
  return ids;
}

void FluidSim::drop_admitted() {
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  } else if (pending_head_ > pending_.size() / 2) {
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
  }
}

void FluidSim::admit(FlowId id) {
  flows_[id].started = true;
  rank_[id] = next_rank_++;
  drain_[id].since = now_;
  active_.push_back(id);
  ++live_;
  shard_->flow_joined(id);
}

core::Seconds FluidSim::finish_of(const Drain& d) {
  if (d.rate > 0) return d.since + d.remaining * 8.0 / d.rate;
  return d.remaining > 0 ? kInf : d.since;
}

std::span<const FlowId> FluidSim::active_flows() const {
  if (active_.size() != live_) compact_active();
  return active_;
}

void FluidSim::compact_active() const {
  std::erase_if(active_, [this](FlowId id) { return !is_live(id); });
}

void FluidSim::leave_active(std::size_t n) {
  live_ -= n;
  // Dropping the slots once they outnumber the live flows costs O(1)
  // amortized per departure.
  if (active_.size() - live_ > live_) compact_active();
}

void FluidSim::add_live(topo::LinkId l) {
  if (live_pos_[l] != kNotLive) return;
  live_pos_[l] = static_cast<std::uint32_t>(live_links_.size());
  live_links_.push_back({.since = now_, .link = l, .dst = fabric_.topo().link(l).dst});
  touch(l);
}

void FluidSim::touch(topo::LinkId l) {
  if (touched_flag_[l]) return;
  touched_flag_[l] = 1;
  touched_.push_back(l);
}

void FluidSim::add_pending(const LiveLink& r, LinkStats& st, MarkMass& m) const {
  const double dt = now_ - r.since;
  // Sum over member flows of rate*dt equals the link's allocated rate.
  st.bytes_forwarded += r.rate * dt / 8.0;
  st.busy_time += r.rate > 0 ? dt : 0.0;
  st.util_time += dt * r.util;
  if (r.ecn_excess > 0) m.ecn += dt * cfg_.ecn_marks_per_flow_sec * r.ecn_excess;
  // The congested switch pauses every active upstream link: this is how
  // a single hotspot spreads (the paper's PFC-storm incident).
  if (r.rate > 0 && pfc_sum_[r.dst] > 0) m.pfc += dt * cfg_.pfc_pauses_per_sec * pfc_sum_[r.dst];
}

void FluidSim::fold(LiveLink& r) {
  if (r.since == now_) return;
  add_pending(r, stats_[r.link], mass_[r.link]);
  r.since = now_;
}

LinkStats FluidSim::link_stats(topo::LinkId id) const {
  LinkStats st = stats_[id];
  MarkMass m = mass_[id];
  const std::uint32_t pos = live_pos_[id];
  if (pos != kNotLive) add_pending(live_links_[pos], st, m);
  st.ecn_marks = count_of(m.ecn);
  st.pfc_pauses = count_of(m.pfc);
  return st;
}

void FluidSim::trace_util(const LiveLink& r, bool level) {
  if (tracer_ == nullptr) return;
  obs::TraceKeys k;
  k.link = static_cast<std::int64_t>(r.link);
  tracer_->counter(obs::Track::Link, "util", now_, level ? r.util : 0.0, k);
}

void FluidSim::resum_pfc(topo::NodeId sw) {
  const topo::Topology& topo = fabric_.topo();
  double sum = 0.0;
  for (topo::LinkId out : topo.out_links(sw)) {
    const std::uint32_t pos = live_pos_[out];
    if (pos != kNotLive) sum += live_links_[pos].pfc_excess;
  }
  if (same_bits(sum, pfc_sum_[sw])) return;
  for (topo::LinkId up : topo.in_links(sw)) {
    const std::uint32_t pos = live_pos_[up];
    if (pos != kNotLive) fold(live_links_[pos]);
  }
  pfc_sum_[sw] = sum;
}

void FluidSim::retire_live(topo::LinkId l) {
  const std::uint32_t pos = live_pos_[l];
  if (pos == kNotLive) return;
  LiveLink& r = live_links_[pos];
  fold(r);
  if (r.loaded) trace_util(r, false);
  const bool pauses = r.pfc_excess > 0;
  r = live_links_.back();
  live_pos_[r.link] = pos;
  live_links_.pop_back();
  live_pos_[l] = kNotLive;
  if (pauses) resum_pfc(fabric_.topo().link(l).src);
}

bool FluidSim::set_rate(FlowId id, double rate) {
  Drain& d = drain_[id];
  if (same_bits(d.rate, rate)) return false;
  d.remaining = left_at(d, now_);
  d.since = now_;
  d.rate = rate;
  return true;
}

void FluidSim::publish_link(topo::LinkId l, double rate, double overload, double demand) {
  LiveLink& r = live_links_[live_pos_[l]];
  // A row with neither rate nor demand marks nothing, whatever the
  // thresholds.
  const bool loaded = rate > 0 || demand > 0;
  if (same_bits(r.rate, rate) && same_bits(r.overload, overload) && r.loaded == loaded) return;
  fold(r);
  r.rate = rate;
  r.overload = overload;
  r.util = util_of(rate, effcap_[l]);
  r.loaded = loaded;
  r.ecn_excess = loaded && overload > cfg_.ecn_util_threshold
                     ? overload - cfg_.ecn_util_threshold
                     : 0.0;
  const double pfc_excess = loaded && overload > cfg_.pfc_overload
                                ? overload - cfg_.pfc_overload
                                : 0.0;
  r.pfc_changed = !same_bits(pfc_excess, r.pfc_excess);
  r.pfc_excess = pfc_excess;
  r.republished = true;
}

void FluidSim::settle_links(std::span<const topo::LinkId> links) {
  for (topo::LinkId l : links) {
    LiveLink& r = live_links_[live_pos_[l]];
    if (!r.republished) continue;
    r.republished = false;
    if (r.pfc_changed) {
      r.pfc_changed = false;
      resum_pfc(fabric_.topo().link(l).src);
    }
    trace_util(r, r.loaded);
  }
}

void FluidSim::refresh_util(topo::LinkId l) {
  const std::uint32_t pos = live_pos_[l];
  if (pos == kNotLive) return;
  LiveLink& r = live_links_[pos];
  fold(r);
  r.util = util_of(r.rate, effcap_[l]);
  trace_util(r, r.loaded);
}

void FluidSim::set_metrics(obs::Metrics* metrics) {
  metrics_ = metrics;
  solve_hist_ = metrics ? &metrics->histogram("fluidsim.solve_us") : nullptr;
}

void FluidSim::solve_full(bool every_shard) {
  if (metrics_) metrics_->add("fluidsim.solves.full");
  const auto scope = every_shard ? ShardSolver::Scope::All : ShardSolver::Scope::Full;
  timed_solve(solve_hist_, [this, scope] { shard_->solve(scope); });
  if (peaks_reset_) {
    // A full solve leaves every link that carries flows with a peak at
    // least its published overload. Solved shards raised theirs; after
    // reset_stats() the skipped ones need it too.
    for (const LiveLink& r : live_links_) {
      stats_[r.link].peak_overload = std::max(stats_[r.link].peak_overload, r.overload);
    }
    peaks_reset_ = false;
  }
}

void FluidSim::finish_pending_solve() {
  if (live_ > 0 && shard_->solve_due()) solve_full();
}

bool FluidSim::rates_current() const { return live_ == 0 || !shard_->solve_due(); }

void FluidSim::resolve_rates() { solve_full(/*every_shard=*/true); }

bool FluidSim::all_finished(std::span<const FlowId> watch) const {
  for (FlowId id : watch) {
    if (flows_[id].admitted && flows_[id].finish < 0 && !flows_[id].aborted) {
      return false;
    }
  }
  return true;
}

void FluidSim::run(core::Seconds until) { run_watch({}, until); }

void FluidSim::run_watch(std::span<const FlowId> watch, core::Seconds until) {
  run_impl(until, watch);
  assert(rates_current());
}

void FluidSim::run_impl(core::Seconds until, std::span<const FlowId> watch) {
  while (true) {
    // Admit everything that has started, as one wave (same-start waves
    // from collectives collapse into a single solve).
    const std::size_t first = pending_head_;
    while (has_pending() && pending_[pending_head_].start <= now_) {
      admit(pending_[pending_head_++].id);
    }
    if (pending_head_ != first) {
      drop_admitted();
      if (shard_->wave_is_island()) {
        // Arrivals land on links nobody else uses: solve just the wave,
        // existing water-filling levels stay valid. Any other wave leaves
        // a solve due, which the solve point below runs.
        if (metrics_) metrics_->add("fluidsim.solves.island");
        timed_solve(solve_hist_, [this] { shard_->solve(ShardSolver::Scope::Silent); });
      }
    }
    if (!watch.empty() && all_finished(watch)) {
      finish_pending_solve();
      return;
    }
    if (live_ == 0) {
      // The last completion or abort retired every row, so the clock
      // jumps below integrate nothing.
      assert(live_links_.empty());
      if (!has_pending()) {
        if (is_bounded(until) && now_ < until) now_ = until;
        return;
      }
      const core::Seconds next = pending_[pending_head_].start;
      if (next > until) {
        now_ = until;
        return;
      }
      now_ = next;
      continue;
    }
    if (shard_->solve_due()) solve_full();
    // The next event is the earliest shard finish, the next arrival or
    // the deadline, taken as an absolute time.
    const core::Seconds t_finish = shard_->next_finish();
    const core::Seconds t_arrival = has_pending() ? pending_[pending_head_].start : kInf;
    if (!std::isfinite(std::min(t_finish, t_arrival)) && !is_bounded(until)) {
      // Every active flow is stalled (blocked links) and nothing else is
      // due: a fail-hang. A bounded run parks at its deadline below; with
      // no deadline there is no instant to park at, so return with the
      // clock where it is — a caller can then fail over (reroute_flows /
      // abort_flow) and resume.
      return;
    }
    // A flow re-based a rounding error past its finish reads a finish
    // just before now; it completes now.
    now_ = std::max(now_, std::min({t_finish, t_arrival, until}));
    complete_due();
    if (now_ >= until) {
      finish_pending_solve();
      return;
    }
  }
}

void FluidSim::complete_due() {
  // Completions within the epsilon window of a due shard finish with it
  // (symmetric collectives finish whole waves at once); batching never
  // crosses shards.
  assert(!shard_->solve_due());  // the detached rule reads a settled partition
  completed_batch_.clear();
  shard_->pop_due(now_, cfg_.completion_epsilon, completed_batch_);
  if (completed_batch_.empty()) return;
  for (FlowId id : completed_batch_) {
    drain_[id] = {0.0, 0.0, now_};
    flows_[id].finish = now_;
    retired_.push_back(id);
  }
  if (metrics_) metrics_->add("fluidsim.flows.completed", completed_batch_.size());
  if (tracer_) {
    for (FlowId id : completed_batch_) {
      const FlowState& f = flows_[id];
      obs::TraceKeys k;
      k.flow = static_cast<std::int64_t>(id);
      k.qp = f.spec.tag;
      tracer_->span(obs::Track::Flow, "flow", f.spec.start,
                    now_ - f.spec.start, k, static_cast<double>(f.spec.size));
    }
  }
  for (FlowId id : completed_batch_) shard_->flow_left(id);
  leave_active(completed_batch_.size());
  // If the finished wave shared no link with surviving flows (its shards
  // kept none, as when the fabric went idle), survivors keep their rates:
  // settling only retires the wave's shards and zeroes their links, so
  // the INT/pingmesh view reports no phantom queueing. Any other wave
  // leaves a solve due, which the event loop runs at its solve point.
  if (shard_->wave_is_detached()) shard_->solve(ShardSolver::Scope::Silent);
}

core::Seconds FluidSim::hop_latency(topo::LinkId id) const {
  const std::uint32_t pos = live_pos_[id];
  const double overload = pos == kNotLive ? 0.0 : live_links_[pos].overload;
  double queue = overload > 1.0
                     ? cfg_.max_queue_delay * std::min(1.0, overload - 1.0)
                     : 0.0;
  return cfg_.base_hop_latency + queue;
}

void FluidSim::degrade_link(topo::LinkId id, double factor) {
  // The link's row folds at its old util factor (refresh_util); the rows
  // the re-solve changes fold at their publish, at the old values.
  degrade_[id] = std::max(0.0, factor);
  effcap_[id] = fabric_.topo().link(id).capacity * degrade_[id];
  refresh_util(id);
  shard_->link_changed(id);
  if (live_ > 0) solve_full();
  assert(rates_current());
}

void FluidSim::set_link_up(topo::LinkId id, bool up) {
  fabric_.topo().set_link_state(id, up);
  effcap_[id] = up ? fabric_.topo().link(id).capacity * degrade_[id] : 0.0;
  refresh_util(id);
  shard_->link_changed(id);
  if (live_ > 0) solve_full();
  assert(rates_current());
}

FluidSim::RerouteReport FluidSim::reroute_flows() {
  RerouteReport rep;
  topo::Topology& topo = fabric_.topo();
  auto path_dead = [&](const FlowState& f) {
    for (topo::LinkId l : f.path) {
      if (!topo.link(l).up || effcap_[l] <= 0.0) return true;
    }
    return false;
  };
  // The router skips down links but cannot see silent blackholes (up,
  // zero effective capacity). Mask them down for the duration of the
  // reroute pass so re-resolution steers around them, then restore:
  // degrade_link's contract keeps a blackholed link routable for traffic
  // that has not been explicitly failed over.
  std::vector<topo::LinkId> masked;
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    auto id = static_cast<topo::LinkId>(l);
    if (topo.link(id).up && effcap_[id] <= 0.0) {
      topo.set_link_state(id, false);
      masked.push_back(id);
    }
  }
  auto path_alive = [&](const std::vector<topo::LinkId>& path) {
    for (topo::LinkId l : path) {
      if (effcap_[l] <= 0.0) return false;
    }
    return true;
  };

  for (FlowId id : active_) {
    if (!is_live(id)) continue;
    FlowState& f = flows_[id];
    if (f.path.empty() || !path_dead(f)) continue;
    shard_->flow_left(id);
    set_rate(id, 0.0);
    auto path = router_.route(f.spec, f.tuple);
    if (path && path_alive(*path)) {
      f.path = std::move(*path);
      shard_->flow_joined(id);
      rep.rerouted.push_back(id);
    } else {
      f.path.clear();
      rep.stranded.push_back(id);
    }
  }

  // Pending flows pinned their paths at injection; refresh dead ones so
  // they are not admitted onto a link that died while they queued.
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
    const FlowId id = pending_[i].id;
    FlowState& f = flows_[id];
    if (f.path.empty() || !path_dead(f)) continue;
    auto path = router_.route(f.spec, f.tuple);
    if (path && path_alive(*path)) {
      f.path = std::move(*path);
      rep.rerouted.push_back(id);
    } else {
      f.path.clear();
      rep.stranded.push_back(id);
    }
  }

  for (topo::LinkId l : masked) topo.set_link_state(l, true);

  if (metrics_) {
    metrics_->add("fluidsim.flows.rerouted", rep.rerouted.size());
    metrics_->add("fluidsim.flows.stranded", rep.stranded.size());
  }
  if (tracer_) {
    for (FlowId id : rep.rerouted) {
      obs::TraceKeys k;
      k.flow = static_cast<std::int64_t>(id);
      tracer_->instant(obs::Track::Flow, "flow.rerouted", now_, k);
    }
    for (FlowId id : rep.stranded) {
      obs::TraceKeys k;
      k.flow = static_cast<std::int64_t>(id);
      tracer_->instant(obs::Track::Flow, "flow.stranded", now_, k);
    }
  }

  if (live_ > 0 && !(rep.rerouted.empty() && rep.stranded.empty())) {
    solve_full();
  }
  assert(rates_current());
  return rep;
}

void FluidSim::abort_flow(FlowId id) {
  FlowState& f = flows_[id];
  if (!f.admitted || f.finish >= 0 || f.aborted) return;
  f.aborted = true;
  retired_.push_back(id);
  if (metrics_) metrics_->add("fluidsim.flows.aborted");
  if (tracer_) {
    obs::TraceKeys k;
    k.flow = static_cast<std::int64_t>(id);
    k.qp = f.spec.tag;
    // A pending flow can be aborted before its start; clamp the span so
    // the duration stays non-negative.
    const core::Seconds start = std::min(f.spec.start, now_);
    tracer_->span(obs::Track::Flow, "flow.aborted", start, now_ - start, k,
                  static_cast<double>(f.spec.size));
  }
  if (f.started) {
    // It keeps the bytes it had left, and leaves the active set in place:
    // the survivors keep their order, so only its own shard re-solves.
    set_rate(id, 0.0);
    shard_->flow_left(id);
    leave_active(1);
    if (live_ == 0) {
      shard_->solve(ShardSolver::Scope::Silent);  // retires the last shard
    } else {
      solve_full();
    }
  } else {
    // Still queued: its entry leaves the queue in place.
    const auto p = std::lower_bound(pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_),
                                    pending_.end(), Pending{f.spec.start, id}, EarlierStart{});
    if (p != pending_.end() && p->id == id) pending_.erase(p);
  }
  assert(rates_current());
}

void FluidSim::recycle_finished() {
  for (FlowId id : retired_) {
    FlowState& f = flows_[id];
    f.path.clear();
    f.path.shrink_to_fit();
  }
  retired_.clear();
}

void FluidSim::reset_stats() {
  // Folding moves every row's fold point to now; zeroing the touched
  // links (live ones included) then drops what the rows had accrued.
  for (LiveLink& r : live_links_) fold(r);
  for (topo::LinkId l : touched_) {
    stats_[l] = LinkStats{};
    mass_[l] = MarkMass{};
    touched_flag_[l] = 0;
  }
  touched_.clear();
  for (const LiveLink& r : live_links_) touch(r.link);
  peaks_reset_ = true;
}

core::Bytes FluidSim::backlog() const {
  double total = 0.0;
  for (FlowId id : active_) {
    if (is_live(id)) total += remaining(id);
  }
  for (std::size_t i = pending_head_; i < pending_.size(); ++i) {
    total += drain_[pending_[i].id].remaining;
  }
  return static_cast<core::Bytes>(total);
}

}  // namespace astral::net
