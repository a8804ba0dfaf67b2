#include "net/fluid_sim.h"

#include <algorithm>
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
// Active flows sit in admission order, scattered across the drain array;
// the per-event scans fetch this many flows ahead so their cache misses
// overlap (the completion sweep of a 1M-flow drain ran about 2x faster
// on a 4-vCPU x86-64 VM).
constexpr std::size_t kScanPrefetch = 8;

// Heap order of pending arrivals: earliest start on top.
struct LaterStart {
  template <typename P>
  bool operator()(const P& a, const P& b) const { return a.start > b.start; }
};

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
  touched_.reserve(nlinks);
  touched_flag_.assign(nlinks, 0);
  degrade_.assign(nlinks, 1.0);
  effcap_.resize(nlinks);
  for (std::size_t l = 0; l < nlinks; ++l) {
    effcap_[l] = fabric_.topo().link(static_cast<topo::LinkId>(l)).capacity;
  }
  members_.resize(nlinks);
  live_pos_.assign(nlinks, kNotLive);
  pfc_rows_.assign(fabric_.topo().node_count(), 0);
  mark_epoch_.assign(nlinks, 0);
  mark_count_.assign(nlinks, 0);
  shard_ = std::make_unique<ShardSolver>(*this);
}

FluidSim::~FluidSim() = default;

std::size_t FluidSim::solver_shard_count() const { return shard_->shard_count(); }

void FluidSim::debug_set_epoch_counters(std::uint64_t value) {
  mark_epoch_counter_ = value;
  shard_->debug_set_epoch_counter(value);
}

std::optional<std::vector<topo::LinkId>> FluidSim::predict_path(const FlowSpec& spec) const {
  return router_.route(spec, router_.tuple_for(spec));
}

FlowId FluidSim::inject_impl(const FlowSpec& spec, bool fix_heap) {
  FlowState st;
  st.spec = spec;
  st.tuple = router_.tuple_for(spec);
  auto path = router_.route(spec, st.tuple);
  if (path) {
    st.path = std::move(*path);
    st.admitted = true;
    // Membership slots are sized here so admission is allocation-free.
    st.member_pos.resize(st.path.size());
  } else {
    st.admitted = false;
    st.finish = spec.start;  // Unroutable: surfaces immediately to caller.
  }
  FlowId id = static_cast<FlowId>(flows_.size());
  flows_.push_back(std::move(st));
  drain_.push_back({static_cast<double>(spec.size), 0.0});
  if (flows_.back().admitted) {
    pending_.push_back({spec.start, id});
    if (fix_heap) std::push_heap(pending_.begin(), pending_.end(), LaterStart{});
  }
  return id;
}

FlowId FluidSim::inject(const FlowSpec& spec) { return inject_impl(spec, true); }

std::vector<FlowId> FluidSim::inject_batch(std::span<const FlowSpec> specs) {
  std::vector<FlowId> ids;
  ids.reserve(specs.size());
  const std::size_t before = pending_.size();
  for (const FlowSpec& s : specs) ids.push_back(inject_impl(s, false));
  if (pending_.size() != before) std::make_heap(pending_.begin(), pending_.end(), LaterStart{});
  return ids;
}

void FluidSim::admit(FlowId id) {
  active_.push_back(id);
  add_member(id);
}

void FluidSim::add_member(FlowId id) {
  FlowState& f = flows_[id];
  for (std::uint32_t h = 0; h < f.path.size(); ++h) {
    topo::LinkId l = f.path[h];
    f.member_pos[h] = static_cast<std::uint32_t>(members_[l].size());
    members_[l].push_back({id, h});
  }
  shard_->flow_joined(id);
}

void FluidSim::remove_member(FlowId id) {
  shard_->flow_left(id);
  FlowState& f = flows_[id];
  for (std::uint32_t h = 0; h < f.path.size(); ++h) {
    auto& mem = members_[f.path[h]];
    const std::uint32_t pos = f.member_pos[h];
    const Member moved = mem.back();
    mem[pos] = moved;
    flows_[moved.flow].member_pos[moved.hop] = pos;
    mem.pop_back();
  }
}

bool FluidSim::batch_is_island(std::span<const FlowId> batch) {
  // Member lists hold active flows only, so a batch that is the whole
  // active set is all its links carry.
  if (batch.size() == active_.size()) return true;
  if (++mark_epoch_counter_ == 0) {
    // Counter wrapped: ancient stamps could alias it. Reset and restart
    // above the cleared value.
    std::fill(mark_epoch_.begin(), mark_epoch_.end(), 0);
    mark_epoch_counter_ = 1;
  }
  for (FlowId id : batch) {
    for (topo::LinkId l : flows_[id].path) {
      if (mark_epoch_[l] != mark_epoch_counter_) {
        mark_epoch_[l] = mark_epoch_counter_;
        mark_count_[l] = 0;
      }
      ++mark_count_[l];
    }
  }
  for (FlowId id : batch) {
    for (topo::LinkId l : flows_[id].path) {
      if (members_[l].size() != mark_count_[l]) return false;
    }
  }
  return true;
}

std::uint8_t FluidSim::MarkKeys::key_of(double x) {
  if (!(x > 0)) return kNone;
  if (!(x >= 0x1p-900 && x <= 0x1p900)) return 0;
  // x < 2^(ilogb(x) + 1), so 2x * 2^(-ilogb(x) - 2) < 1.
  return static_cast<std::uint8_t>(std::clamp(-std::ilogb(x) - 2 + kBias, 0, kCount - 1));
}

void FluidSim::MarkKeys::move(std::uint8_t& key, std::uint8_t to) {
  if (key == to) return;
  const int was = min_;
  if (key != kNone) {
    --total_;
    if (--rows_[key] == 0 && key == min_) {
      while (min_ < kCount && rows_[min_] == 0) ++min_;
    }
  }
  if (to != kNone) {
    ++total_;
    ++rows_[to];
    min_ = std::min<int>(min_, to);
  }
  if (min_ != was) limit_ = min_ == 0 || min_ == kCount ? 0.0 : std::ldexp(1.0, min_ - kBias);
  key = to;
}

void FluidSim::add_live(topo::LinkId l) {
  if (live_pos_[l] != kNotLive) return;
  live_pos_[l] = static_cast<std::uint32_t>(live_links_.size());
  live_links_.push_back({.since = accumulated_until_,
                         .since_interval = intervals_,
                         .link = l,
                         .dst = fabric_.topo().link(l).dst});
  touch(l);
}

void FluidSim::touch(topo::LinkId l) {
  if (touched_flag_[l]) return;
  touched_flag_[l] = 1;
  touched_.push_back(l);
}

void FluidSim::add_pending(const LiveLink& r, LinkStats& st) const {
  const double dt = accumulated_until_ - r.since;
  // Sum over member flows of rate*dt equals the link's allocated rate.
  st.bytes_forwarded += r.rate * dt / 8.0;
  st.busy_time += r.rate > 0 ? dt : 0.0;
  st.util_time += dt * r.util;
  const std::uint64_t intervals = intervals_ - r.since_interval;
  if (r.ecn_excess > 0) st.ecn_marks += intervals;
  if (r.rate > 0) st.pfc_pauses += pfc_rows_[r.dst] * intervals;
}

void FluidSim::fold(LiveLink& r) {
  // The clock moves only by counted intervals while any row is live, so
  // a row folded in the current interval has nothing pending.
  if (r.since_interval == intervals_) return;
  add_pending(r, stats_[r.link]);
  r.since = accumulated_until_;
  r.since_interval = intervals_;
}

LinkStats FluidSim::link_stats(topo::LinkId id) const {
  LinkStats st = stats_[id];
  const std::uint32_t pos = live_pos_[id];
  if (pos != kNotLive) add_pending(live_links_[pos], st);
  return st;
}

void FluidSim::register_pfc(LiveLink& r, std::uint8_t key) {
  const bool had = r.pfc_registered != MarkKeys::kNone;
  if (had != (key != MarkKeys::kNone)) {
    const topo::Topology& topo = fabric_.topo();
    const topo::NodeId sw = topo.link(r.link).src;
    for (topo::LinkId up : topo.in_links(sw)) {
      if (live_pos_[up] != kNotLive) fold(live_links_[live_pos_[up]]);
    }
    if (had) {
      --pfc_rows_[sw];
    } else {
      ++pfc_rows_[sw];
    }
  }
  pfc_keys_.move(r.pfc_registered, key);
}

void FluidSim::retire_live(topo::LinkId l) {
  const std::uint32_t pos = live_pos_[l];
  if (pos == kNotLive) return;
  LiveLink& r = live_links_[pos];
  fold(r);
  ecn_keys_.move(r.ecn_registered, MarkKeys::kNone);
  register_pfc(r, MarkKeys::kNone);
  r = live_links_.back();
  live_pos_[r.link] = pos;
  live_links_.pop_back();
  live_pos_[l] = kNotLive;
}

void FluidSim::publish_link(topo::LinkId l, double rate, double overload, double demand) {
  LiveLink& r = live_links_[live_pos_[l]];
  fold(r);
  r.rate = rate;
  r.overload = overload;
  r.util = util_of(rate, effcap_[l]);
  // A row with neither rate nor demand marks nothing, whatever the
  // thresholds.
  r.loaded = rate > 0 || demand > 0;
  r.ecn_excess = r.loaded && overload > cfg_.ecn_util_threshold
                     ? overload - cfg_.ecn_util_threshold
                     : 0.0;
  r.pfc_excess = r.loaded && overload > cfg_.pfc_overload
                     ? overload - cfg_.pfc_overload
                     : 0.0;
  r.ecn_key = MarkKeys::key_of(r.ecn_excess);
  r.pfc_key = MarkKeys::key_of(r.pfc_excess);
}

void FluidSim::rekey_links(std::span<const topo::LinkId> links) {
  for (topo::LinkId l : links) {
    LiveLink& r = live_links_[live_pos_[l]];
    ecn_keys_.move(r.ecn_registered, r.ecn_key);
    if (r.pfc_registered != r.pfc_key) register_pfc(r, r.pfc_key);
  }
}

void FluidSim::refresh_util(topo::LinkId l) {
  const std::uint32_t pos = live_pos_[l];
  if (pos == kNotLive) return;
  LiveLink& r = live_links_[pos];
  fold(r);
  r.util = util_of(r.rate, effcap_[l]);
}

void FluidSim::set_metrics(obs::Metrics* metrics) {
  metrics_ = metrics;
  solve_hist_ = metrics ? &metrics->histogram("fluidsim.solve_us") : nullptr;
}

void FluidSim::solve_full(bool every_shard) {
  if (metrics_) metrics_->add("fluidsim.solves.full");
  const auto scope = every_shard ? ShardSolver::Scope::All : ShardSolver::Scope::Full;
  timed_solve(solve_hist_, [this, scope] { shard_->solve(scope); });
  solve_pending_ = false;
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
  if (solve_pending_ && !active_.empty()) solve_full();
}

void FluidSim::resolve_rates() { solve_full(/*every_shard=*/true); }

void FluidSim::accumulate_until(core::Seconds t) {
  const double dt = t - accumulated_until_;
  if (dt <= 0) return;
  const core::Seconds interval_start = accumulated_until_;
  accumulated_until_ = t;
  ++intervals_;
  // Marks are ceil(dt * k * excess), evaluated left to right: the
  // products dt * k are per interval, not per link.
  const double ecn_k = dt * cfg_.ecn_marks_per_flow_sec;
  const double pfc_k = dt * cfg_.pfc_pauses_per_sec;
  const bool ecn_pass = ecn_keys_.needs_pass(ecn_k);
  const bool pfc_pass = pfc_keys_.needs_pass(pfc_k);
  if (ecn_pass || pfc_pass) {
    // The exact pass. Every row with a positive excess accrues one mark
    // for this interval lazily, so it adds ceil(k * excess) - 1 here,
    // modulo 2^64: 0 for a row that gains exactly 1, -1 for a product that
    // underflowed to 0. Locals, so the stores into stats_ do not force
    // reloads of the vectors' bounds every row.
    const LiveLink* const rows = live_links_.data();
    const auto nrows = static_cast<std::uint32_t>(live_links_.size());
    LinkStats* const stats = stats_.data();
    const topo::Topology& topo = fabric_.topo();
    for (std::uint32_t i = 0; i < nrows; ++i) {
      const LiveLink& r = rows[i];
      if (ecn_pass && r.ecn_excess > 0) {
        stats[r.link].ecn_marks += static_cast<std::uint64_t>(std::ceil(ecn_k * r.ecn_excess)) - 1;
      }
      if (!pfc_pass || r.pfc_excess <= 0) continue;
      const std::uint64_t extra = static_cast<std::uint64_t>(std::ceil(pfc_k * r.pfc_excess)) - 1;
      if (extra == 0) continue;
      // The congested switch pauses every active upstream link: this is
      // how a single hotspot spreads (the paper's PFC-storm incident).
      for (topo::LinkId up : topo.in_links(topo.link(r.link).src)) {
        if (link_rate(up) > 0) stats[up].pfc_pauses += extra;
      }
    }
  }
  if (tracer_ != nullptr) {
    for (const LiveLink& r : live_links_) {
      if (!r.loaded) continue;
      // Rates are piecewise constant over [interval_start, t]; one sample
      // at the interval start reproduces the step function exactly.
      obs::TraceKeys k;
      k.link = static_cast<std::int64_t>(r.link);
      tracer_->counter(obs::Track::Link, "util", interval_start, r.util, k);
    }
  }
}

bool FluidSim::all_finished(std::span<const FlowId> watch) const {
  for (FlowId id : watch) {
    if (flows_[id].admitted && flows_[id].finish < 0 && !flows_[id].aborted) {
      return false;
    }
  }
  return true;
}

void FluidSim::run(core::Seconds until) { run_impl(until, {}); }

void FluidSim::run_watch(std::span<const FlowId> watch, core::Seconds until) {
  run_impl(until, watch);
}

void FluidSim::run_impl(core::Seconds until, std::span<const FlowId> watch) {
  while (true) {
    // Admit everything that has started, as one batch (same-start waves
    // from collectives collapse into a single solve).
    admitted_batch_.clear();
    while (!pending_.empty() && pending_.front().start <= now_ + 1e-15) {
      std::pop_heap(pending_.begin(), pending_.end(), LaterStart{});
      const FlowId id = pending_.back().id;
      pending_.pop_back();
      admit(id);
      admitted_batch_.push_back(id);
    }
    if (!admitted_batch_.empty()) {
      if (!solve_pending_ && batch_is_island(admitted_batch_)) {
        // Arrivals land on links nobody else uses: solve just the wave,
        // existing water-filling levels stay valid.
        if (metrics_) metrics_->add("fluidsim.solves.island");
        timed_solve(solve_hist_, [this] { shard_->solve(ShardSolver::Scope::Silent); });
      } else {
        solve_pending_ = true;
      }
    }
    if (!watch.empty() && all_finished(watch)) {
      finish_pending_solve();
      return;
    }
    if (active_.empty()) {
      // The last completion or abort retired every row, so the clock
      // jumps below integrate nothing.
      assert(live_links_.empty());
      if (pending_.empty()) {
        if (is_bounded(until) && now_ < until) now_ = until;
        accumulated_until_ = std::max(accumulated_until_, now_);
        return;
      }
      const core::Seconds next = pending_.front().start;
      if (next > until) {
        now_ = until;
        accumulated_until_ = std::max(accumulated_until_, now_);
        return;
      }
      now_ = next;
      accumulated_until_ = std::max(accumulated_until_, now_);
      continue;
    }
    if (solve_pending_) solve_full();
    // Next completion.
    double min_dt = kInf;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (i + kScanPrefetch < active_.size()) {
        __builtin_prefetch(&drain_[active_[i + kScanPrefetch]]);
      }
      const Drain& d = drain_[active_[i]];
      if (d.rate > 0) min_dt = std::min(min_dt, d.remaining * 8.0 / d.rate);
    }
    double dt_arrival = pending_.empty() ? kInf : pending_.front().start - now_;
    double dt_until = until - now_;
    double dt = std::min({min_dt, dt_arrival, dt_until});
    if (!std::isfinite(std::min(min_dt, dt_arrival)) && !is_bounded(until)) {
      // Every active flow is stalled (blocked links) and nothing else is
      // due: a fail-hang. A bounded run integrates the stall up to its
      // deadline below; with no deadline there is no instant to park at,
      // so return with the clock where it is — a caller can then fail
      // over (reroute_flows / abort_flow) and resume.
      return;
    }
    dt = std::max(dt, 0.0);
    accumulate_until(now_ + dt);
    now_ += dt;

    // Drain every active flow by rate * dt, and complete flows within the
    // epsilon batch window (symmetric collectives finish whole waves at
    // once) in the same pass.
    completed_batch_.clear();
    std::size_t w = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (i + kScanPrefetch < active_.size()) {
        __builtin_prefetch(&drain_[active_[i + kScanPrefetch]], 1);
      }
      Drain& d = drain_[active_[i]];
      d.remaining -= d.rate * dt / 8.0;
      bool done = d.rate > 0 && d.remaining * 8.0 / d.rate <= cfg_.completion_epsilon;
      if (done || d.remaining <= 1e-6) {
        d.remaining = 0.0;
        d.rate = 0.0;
        flows_[active_[i]].finish = now_;
        completed_batch_.push_back(active_[i]);
        retired_.push_back(active_[i]);
      } else {
        active_[w++] = active_[i];
      }
    }
    active_.resize(w);
    if (!completed_batch_.empty()) {
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
      for (FlowId id : completed_batch_) remove_member(id);
      // If the finished wave shared no link with surviving flows (its
      // member lists are empty now, as when the fabric went idle),
      // survivors keep their rates: settling only retires the wave's
      // shards and zeroes their links, so the INT/pingmesh view reports
      // no phantom queueing.
      bool detached = true;
      for (FlowId id : completed_batch_) {
        for (topo::LinkId l : flows_[id].path) {
          if (!members_[l].empty()) {
            detached = false;
            break;
          }
        }
        if (!detached) break;
      }
      if (detached) {
        shard_->solve(ShardSolver::Scope::Silent);
      } else {
        solve_pending_ = true;
      }
    }
    if (now_ >= until) {
      finish_pending_solve();
      return;
    }
  }
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
  // Charge the elapsed interval at pre-degradation overloads before the
  // rate structure changes; otherwise ECN/PFC/byte counters for the old
  // interval would be computed with post-degradation state.
  accumulate_until(now_);
  degrade_[id] = std::max(0.0, factor);
  effcap_[id] = fabric_.topo().link(id).capacity * degrade_[id];
  refresh_util(id);
  shard_->link_changed(id);
  if (!active_.empty()) solve_full();
}

void FluidSim::set_link_up(topo::LinkId id, bool up) {
  // Charge the elapsed interval before the rate structure changes, as in
  // degrade_link.
  accumulate_until(now_);
  fabric_.topo().set_link_state(id, up);
  effcap_[id] = up ? fabric_.topo().link(id).capacity * degrade_[id] : 0.0;
  refresh_util(id);
  shard_->link_changed(id);
  if (!active_.empty()) solve_full();
}

FluidSim::RerouteReport FluidSim::reroute_flows() {
  RerouteReport rep;
  accumulate_until(now_);
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
    FlowState& f = flows_[id];
    if (f.path.empty() || !path_dead(f)) continue;
    remove_member(id);
    drain_[id].rate = 0.0;
    auto path = router_.route(f.spec, f.tuple);
    if (path && path_alive(*path)) {
      f.path = std::move(*path);
      f.member_pos.assign(f.path.size(), 0);
      add_member(id);
      rep.rerouted.push_back(id);
    } else {
      f.path.clear();
      f.member_pos.clear();
      rep.stranded.push_back(id);
    }
  }

  // Pending flows pinned their paths at injection; refresh dead ones so
  // they are not admitted onto a link that died while they queued.
  for (const Pending& p : pending_) {
    const FlowId id = p.id;
    FlowState& f = flows_[id];
    if (f.path.empty() || !path_dead(f)) continue;
    auto path = router_.route(f.spec, f.tuple);
    if (path && path_alive(*path)) {
      f.path = std::move(*path);
      f.member_pos.assign(f.path.size(), 0);
      rep.rerouted.push_back(id);
    } else {
      f.path.clear();
      f.member_pos.clear();
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

  if (!active_.empty() && !(rep.rerouted.empty() && rep.stranded.empty())) {
    solve_full();
  }
  return rep;
}

void FluidSim::abort_flow(FlowId id) {
  FlowState& f = flows_[id];
  if (!f.admitted || f.finish >= 0 || f.aborted) return;
  accumulate_until(now_);
  f.aborted = true;
  drain_[id].rate = 0.0;
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
  auto it = std::find(active_.begin(), active_.end(), id);
  if (it != active_.end()) {
    if (!f.path.empty()) remove_member(id);
    // Swap-removal moves the last active flow into the hole, which
    // reorders the active-set order its shard caches.
    if (*it != active_.back()) shard_->flow_moved(active_.back());
    *it = active_.back();
    active_.pop_back();
    if (active_.empty()) {
      shard_->solve(ShardSolver::Scope::Silent);  // retires the last shard
    } else {
      solve_full();
    }
    return;
  }
  auto p = std::find_if(pending_.begin(), pending_.end(),
                        [id](const Pending& e) { return e.id == id; });
  if (p != pending_.end()) {
    pending_.erase(p);
    std::make_heap(pending_.begin(), pending_.end(), LaterStart{});
  }
}

void FluidSim::recycle_finished() {
  for (FlowId id : retired_) {
    FlowState& f = flows_[id];
    f.path.clear();
    f.path.shrink_to_fit();
    f.member_pos.clear();
    f.member_pos.shrink_to_fit();
  }
  retired_.clear();
}

void FluidSim::reset_stats() {
  // Folding moves every row's fold point to now; zeroing the touched
  // links (live ones included) then drops what the rows had accrued.
  for (LiveLink& r : live_links_) fold(r);
  for (topo::LinkId l : touched_) {
    stats_[l] = LinkStats{};
    touched_flag_[l] = 0;
  }
  touched_.clear();
  for (const LiveLink& r : live_links_) touch(r.link);
  peaks_reset_ = true;
}

core::Bytes FluidSim::backlog() const {
  double total = 0.0;
  for (FlowId id : active_) total += drain_[id].remaining;
  for (const Pending& p : pending_) total += drain_[p.id].remaining;
  return static_cast<core::Bytes>(total);
}

}  // namespace astral::net
