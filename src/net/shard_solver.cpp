#include "net/shard_solver.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/thread_pool.h"
#include "net/fluid_sim.h"
#include "obs/metrics.h"

namespace astral::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoShard = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kJoined = kNoShard - 1;  ///< Joined, not yet settled.
constexpr std::uint32_t kNoPos = kNoShard;        ///< Not in the finish heap.

// Heap order of shard finishes: the earlier finish, then the lower slot.
template <typename D>
bool due_before(const D& a, const D& b) {
  return a.finish < b.finish || (a.finish == b.finish && a.sid < b.sid);
}

// Merge order of collection cursors: the lower admission rank on top.
struct LaterRank {
  template <typename C>
  bool operator()(const C& a, const C& b) const {
    return a.rank > b.rank;
  }
};

// Min-heap on (share, local link); local ids ascend with global ids, so
// tie-breaks — and therefore the freeze order and floating-point
// accumulation order — follow the global (share, link id) order.
struct LocalHeapCmp {
  bool operator()(const std::pair<double, std::uint32_t>& a,
                  const std::pair<double, std::uint32_t>& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  }
};
}  // namespace

ShardSolver::ShardSolver(FluidSim& sim) : sim_(sim) {
  const std::size_t nlinks = sim_.fabric_.topo().link_count();
  uf_stamp_.assign(nlinks, 0);
  uf_parent_.assign(nlinks, 0);
  root_stamp_.assign(nlinks, 0);
  root_shard_.assign(nlinks, 0);
  seen_stamp_.assign(nlinks, 0);
  link_shard_.assign(nlinks, kNoShard);
  link_local_.assign(nlinks, 0);
}

ShardSolver::~ShardSolver() = default;

void ShardSolver::bump_build_epoch() {
  if (++build_epoch_ == 0) {
    // Wrapped: stale stamps from 2^64 builds ago could alias the counter.
    // Reset every stamp array and restart the counter above the reset
    // value.
    std::fill(uf_stamp_.begin(), uf_stamp_.end(), 0);
    std::fill(root_stamp_.begin(), root_stamp_.end(), 0);
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0);
    build_epoch_ = 1;
  }
}

std::uint32_t ShardSolver::uf_find(std::uint32_t x) {
  while (uf_parent_[x] != x) {
    uf_parent_[x] = uf_parent_[uf_parent_[x]];  // path halving
    x = uf_parent_[x];
  }
  return x;
}

void ShardSolver::mark_dirty(std::uint32_t sid) {
  Shard& s = shards_[sid];
  if (s.dirty) return;
  s.dirty = true;
  dirty_.push_back(sid);
}

void ShardSolver::flow_joined(FlowId id) {
  if (flow_shard_.size() < sim_.flows_.size()) flow_shard_.resize(sim_.flows_.size(), kNoShard);
  flow_shard_[id] = kJoined;
  joined_.push_back(id);
  for (topo::LinkId l : sim_.flows_[id].path) {
    if (link_shard_[l] != kNoShard) mark_dirty(link_shard_[l]);
  }
}

void ShardSolver::flow_left(FlowId id) {
  const std::uint32_t sid = flow_shard_[id];
  flow_shard_[id] = kNoShard;
  if (sid == kNoShard || sid == kJoined) return;
  --shards_[sid].live_flows;
  mark_dirty(sid);
}

void ShardSolver::link_changed(topo::LinkId id) {
  const std::uint32_t sid = link_shard_[id];
  if (sid == kNoShard) return;  // no flow crosses it: nothing to redo
  Shard& s = shards_[sid];
  if (s.caps_dirty) return;
  s.caps_dirty = true;
  caps_dirty_.push_back(sid);
}

bool ShardSolver::wave_is_detached() const {
  return std::all_of(dirty_.begin(), dirty_.end(),
                     [this](std::uint32_t sid) { return shards_[sid].live_flows == 0; });
}

void ShardSolver::collect_flows() {
  collect_.clear();
  // The sources, each in admission-rank order: the survivors of every
  // structure-dirty shard that keeps any (a shard's flows list is in
  // active-set order; a flow that left or rejoined no longer names the
  // shard) and the joined flows (one admission batch or one reroute
  // pass). A k-way merge on rank restores the active-set order.
  const auto joined_src = static_cast<std::uint32_t>(dirty_.size());
  auto list_of = [&](std::uint32_t src) -> const std::vector<FlowId>& {
    return src == joined_src ? joined_ : shards_[dirty_[src]].flows;
  };
  auto owner_of = [&](std::uint32_t src) { return src == joined_src ? kJoined : dirty_[src]; };
  // Puts a cursor on the source's first survivor at or after `pos`;
  // false when there is none.
  auto advance = [&](std::uint32_t src, std::uint32_t pos) {
    const std::vector<FlowId>& list = list_of(src);
    const std::uint32_t owner = owner_of(src);
    while (pos < list.size() && flow_shard_[list[pos]] != owner) ++pos;
    if (pos == list.size()) return false;
    merge_.push_back({sim_.rank_[list[pos]], src, pos});
    return true;
  };
  merge_.clear();
  for (std::uint32_t src = 0; src < joined_src; ++src) {
    if (shards_[dirty_[src]].live_flows > 0) advance(src, 0);
  }
  advance(joined_src, 0);
  std::make_heap(merge_.begin(), merge_.end(), LaterRank{});
  while (!merge_.empty()) {
    std::pop_heap(merge_.begin(), merge_.end(), LaterRank{});
    const Cursor c = merge_.back();
    merge_.pop_back();
    collect_.push_back(list_of(c.src)[c.pos]);
    if (advance(c.src, c.pos + 1)) std::push_heap(merge_.begin(), merge_.end(), LaterRank{});
  }
#ifndef NDEBUG
  // The merge yields exactly what the full active-set scan gives.
  scan_check_.clear();
  for (FlowId f : sim_.active_) {
    const std::uint32_t sid = flow_shard_[f];
    if (sid == kJoined || (sid != kNoShard && shards_[sid].dirty)) scan_check_.push_back(f);
  }
  assert(scan_check_ == collect_);
#endif
}

void ShardSolver::compile_collected() {
  bump_build_epoch();
  const std::uint64_t e = build_epoch_;

  // Union-find over each flow's links: two links share a shard iff some
  // chain of flows couples them. The paths are copied into one contiguous
  // buffer on the way, so the pass below reads them without touching the
  // flows again. Collected flows sit in active-set order, scattered across
  // the simulator's flow table: each flow's state is fetched two steps
  // ahead of its path so the cache misses of a large collection overlap.
  constexpr std::size_t kAhead = 8;
  collect_off_.clear();
  collect_lnk_.clear();
  for (std::size_t i = 0; i < collect_.size(); ++i) {
    if (i + 2 * kAhead < collect_.size()) {
      __builtin_prefetch(&sim_.flows_[collect_[i + 2 * kAhead]].path);
    }
    if (i + kAhead < collect_.size()) {
      __builtin_prefetch(sim_.flows_[collect_[i + kAhead]].path.data());
    }
    const FlowId f = collect_[i];
    collect_off_.push_back(static_cast<std::uint32_t>(collect_lnk_.size()));
    std::uint32_t prev = topo::kInvalidLink;
    for (topo::LinkId l : sim_.flows_[f].path) {
      collect_lnk_.push_back(l);
      if (uf_stamp_[l] != e) {
        uf_stamp_[l] = e;
        uf_parent_[l] = l;
      }
      if (prev != topo::kInvalidLink) {
        const std::uint32_t ra = uf_find(prev);
        const std::uint32_t rb = uf_find(l);
        if (ra != rb) uf_parent_[rb] = ra;
      }
      prev = l;
    }
  }
  collect_off_.push_back(static_cast<std::uint32_t>(collect_lnk_.size()));

  // One shard per component, in order of first appearance; slots come
  // from the free list first. The same pass hands each link to its shard
  // (every link of a path lies in the path's component), appends links
  // new to the published view to the live-link list in first-touch order,
  // and lays out the path CSR with global link ids.
  for (std::size_t i = 0; i < collect_.size(); ++i) {
    const FlowId f = collect_[i];
    const std::span<const topo::LinkId> path(collect_lnk_.data() + collect_off_[i],
                                             collect_off_[i + 1] - collect_off_[i]);
    if (path.empty()) {
      flow_shard_[f] = kNoShard;  // stranded: no path, its rate stays 0
      continue;
    }
    const std::uint32_t r = uf_find(path.front());
    if (root_stamp_[r] != e) {
      root_stamp_[r] = e;
      std::uint32_t sid;
      if (free_.empty()) {
        sid = static_cast<std::uint32_t>(shards_.size());
        shards_.emplace_back();
        heap_pos_.push_back(kNoPos);
      } else {
        sid = free_.back();
        free_.pop_back();
      }
      Shard& s = shards_[sid];
      s.flows.clear();
      s.links.clear();
      s.path_off.clear();
      s.path_lnk.clear();
      s.live_flows = 0;
      s.in_use = true;
      s.finish_known = false;
      root_shard_[r] = sid;
      todo_.push_back(sid);
    }
    const std::uint32_t sid = root_shard_[r];
    Shard& s = shards_[sid];
    flow_shard_[f] = sid;
    s.flows.push_back(f);
    ++s.live_flows;
    s.path_off.push_back(static_cast<std::uint32_t>(s.path_lnk.size()));
    for (topo::LinkId l : path) {
      s.path_lnk.push_back(l);
      if (seen_stamp_[l] == e) continue;
      seen_stamp_[l] = e;
      sim_.add_live(l);
      link_shard_[l] = sid;
      s.links.push_back(l);
    }
  }

  // Compile each new shard to dense local form.
  for (std::uint32_t sid : todo_) {
    Shard& s = shards_[sid];
    std::sort(s.links.begin(), s.links.end());
    for (std::uint32_t i = 0; i < s.links.size(); ++i) link_local_[s.links[i]] = i;
    const std::size_t nl = s.links.size();
    const std::size_t nf = s.flows.size();

    s.path_off.push_back(static_cast<std::uint32_t>(s.path_lnk.size()));
    for (std::uint32_t& l : s.path_lnk) l = link_local_[l];

    // The member CSR is a counting sort of the path CSR by link, so each
    // link lists its flows in local (active-set) order. Any order gives
    // the same bits: a freeze step gives every unfrozen member of the
    // popped link the same level, so each link's remcap, unfrozen count
    // and rate take the same operations in any member order.
    s.mem_off.assign(nl + 1, 0);
    for (std::uint32_t li : s.path_lnk) ++s.mem_off[li + 1];
    std::partial_sum(s.mem_off.begin(), s.mem_off.end(), s.mem_off.begin());
    s.mem_flow.resize(s.path_lnk.size());
    for (std::uint32_t fi = 0; fi < nf; ++fi) {
      for (std::uint32_t k = s.path_off[fi]; k < s.path_off[fi + 1]; ++k) {
        s.mem_flow[s.mem_off[s.path_lnk[k]]++] = fi;
      }
    }
    // The fill moved each link's offset to its end, the next link's start.
    std::copy_backward(s.mem_off.begin(), s.mem_off.end() - 1, s.mem_off.end());
    s.mem_off[0] = 0;

    s.cap.resize(nl);
    s.demand.resize(nl);
    s.overload.resize(nl);
    s.nmembers.resize(nl);
    s.remcap.resize(nl);
    s.link_rate.resize(nl);
    s.unfrozen.resize(nl);
    s.changed_mark.assign(nl, 0);  // solve_shard relies on all-zero entry
    s.rate.resize(nf);
    s.frozen.resize(nf);
    rebuild_caps(s);
  }
}

void ShardSolver::settle() {
  todo_.clear();
  if (!dirty_.empty() || !joined_.empty()) {
    collect_flows();
    // Retire the dirty shards. Their links lose their owner until the
    // compile below hands the ones that still carry flows to a new shard.
    for (std::uint32_t sid : dirty_) {
      heap_erase(sid);
      Shard& s = shards_[sid];
      for (topo::LinkId l : s.links) {
        link_shard_[l] = kNoShard;
        orphans_.push_back(l);
      }
      s.in_use = false;
      s.dirty = false;
      s.caps_dirty = false;  // recompiled with fresh capacities, if at all
      s.live_flows = 0;
      free_.push_back(sid);
    }
    dirty_.clear();
    joined_.clear();
    compile_collected();
    for (topo::LinkId l : orphans_) {
      if (link_shard_[l] == kNoShard) sim_.retire_live(l);  // no flow crosses it
    }
    orphans_.clear();
  }
  for (std::uint32_t sid : caps_dirty_) {
    Shard& s = shards_[sid];
    if (!s.caps_dirty) continue;  // retired above
    s.caps_dirty = false;
    rebuild_caps(s);
    todo_.push_back(sid);
  }
  caps_dirty_.clear();
}

void ShardSolver::rebuild_caps(Shard& s) {
  const std::size_t nl = s.links.size();
  for (std::size_t li = 0; li < nl; ++li) s.cap[li] = sim_.effcap_[s.links[li]];
  std::fill(s.demand.begin(), s.demand.end(), 0.0);

  // Offered demand at each hop is the prefix-min of upstream link
  // capacities: a degraded downlink sees traffic arriving at full
  // upstream rate, which is what triggers PFC back-pressure. Sums
  // accumulate in active-set order, so they do not depend on the
  // partition.
  const std::size_t nf = s.flows.size();
  for (std::size_t fi = 0; fi < nf; ++fi) {
    double prefix = kInf;
    for (std::uint32_t k = s.path_off[fi]; k < s.path_off[fi + 1]; ++k) {
      const std::uint32_t li = s.path_lnk[k];
      const double cap_l = s.cap[li];
      s.demand[li] += prefix == kInf ? cap_l : prefix;
      prefix = std::min(prefix, cap_l);
    }
  }

  s.heap0.clear();
  for (std::size_t li = 0; li < nl; ++li) {
    const double cap = s.cap[li];
    s.overload[li] = cap > 0 ? s.demand[li] / cap : (s.demand[li] > 0 ? 1e9 : 0.0);
    s.nmembers[li] = s.mem_off[li + 1] - s.mem_off[li];
    // Every shard link has members, so every link enters the heap with
    // its initial share — remcap/unfrozen at their starting values.
    s.heap0.emplace_back(cap > 0 ? cap / static_cast<double>(s.nmembers[li]) : 0.0,
                         static_cast<std::uint32_t>(li));
  }
  std::make_heap(s.heap0.begin(), s.heap0.end(), LocalHeapCmp{});
}

void ShardSolver::solve_shard(Shard& s, bool timed) {
  using clock = std::chrono::steady_clock;
  const auto t0 = timed ? clock::now() : clock::time_point{};
  const std::size_t nf = s.flows.size();
  const std::size_t nl = s.links.size();

  // Reset the arenas by copy from the capacity tier; no allocation.
  std::copy(s.cap.begin(), s.cap.end(), s.remcap.begin());
  std::copy(s.nmembers.begin(), s.nmembers.end(), s.unfrozen.begin());
  std::fill(s.link_rate.begin(), s.link_rate.end(), 0.0);
  std::fill(s.rate.begin(), s.rate.end(), 0.0);
  std::fill(s.frozen.begin(), s.frozen.end(), 0);
  s.heap.assign(s.heap0.begin(), s.heap0.end());

  auto share_of = [&s](std::uint32_t li) {
    return s.remcap[li] > 0
               ? s.remcap[li] / static_cast<double>(s.unfrozen[li])
               : 0.0;
  };

  // Progressive filling: freeze the most constrained link's members at
  // its fair share. The heap is lazy — links whose remcap/unfrozen changed
  // during a level get one fresh entry each (a wave of 10K flows crossing
  // 500 links pushes 500 entries, not 50K), and popped entries whose share
  // no longer matches the link's current value are discarded.
  std::size_t frozen_count = 0;
  while (frozen_count < nf && !s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), LocalHeapCmp{});
    const auto [share, li] = s.heap.back();
    s.heap.pop_back();
    if (s.unfrozen[li] == 0) continue;
    if (share != share_of(li)) continue;  // stale: a newer entry exists
    const double level = std::isfinite(share) ? share : 0.0;
    s.changed_list.clear();
    for (std::uint32_t j = s.mem_off[li]; j < s.mem_off[li + 1]; ++j) {
      const std::uint32_t fi = s.mem_flow[j];
      if (s.frozen[fi]) continue;
      s.frozen[fi] = 1;
      ++frozen_count;
      s.rate[fi] = level;
      for (std::uint32_t k = s.path_off[fi]; k < s.path_off[fi + 1]; ++k) {
        const std::uint32_t pl = s.path_lnk[k];
        s.remcap[pl] -= level;
        s.unfrozen[pl] -= 1;
        s.link_rate[pl] += level;
        if (!s.changed_mark[pl]) {
          s.changed_mark[pl] = 1;
          s.changed_list.push_back(pl);
        }
      }
    }
    for (const std::uint32_t pl : s.changed_list) {
      s.changed_mark[pl] = 0;
      if (pl == li || s.unfrozen[pl] == 0) continue;
      s.heap.emplace_back(share_of(pl), pl);
      std::push_heap(s.heap.begin(), s.heap.end(), LocalHeapCmp{});
    }
  }

  // Publish into the simulator's global view: flow rates into its drain
  // array (a flow whose rate bits change is re-based to now), link state
  // into the links' live rows (a row whose values change folds its
  // counters first). Shards own disjoint flows and links, and every shard
  // link got its row at compile, so concurrent publishes never touch the
  // same element; PFC sums and traced samples, shared across shards, are
  // settled after the shards ran (solve).
  bool moved = !s.finish_known;
  for (std::size_t i = 0; i < nf; ++i) moved |= sim_.set_rate(s.flows[i], s.rate[i]);
  if (moved) {
    // Some flow re-based, or the shard is new: its earliest finish moves.
    core::Seconds first = kInf;
    for (FlowId f : s.flows) first = std::min(first, FluidSim::finish_of(sim_.drain_[f]));
    s.next_finish = first;
    s.finish_known = true;
  }
  for (std::size_t li = 0; li < nl; ++li) {
    const topo::LinkId g = s.links[li];
    sim_.publish_link(g, s.link_rate[li], s.overload[li], s.demand[li]);
    double& peak = sim_.stats_[g].peak_overload;
    if (s.overload[li] > peak) peak = s.overload[li];
  }

  if (timed) {
    s.solve_us =
        std::chrono::duration<double, std::micro>(clock::now() - t0).count();
  }
}

void ShardSolver::run_shards(bool timed) {
  const int threads = sim_.cfg_.solver_threads;
  if (threads > 1 && todo_.size() > 1) {
    if (!pool_ || pool_->lanes() != threads) {
      pool_ = std::make_unique<core::ThreadPool>(threads);
    }
    pool_->parallel_for(todo_.size(), [this, timed](std::size_t i) {
      solve_shard(shards_[todo_[i]], timed);
    });
  } else {
    for (std::uint32_t sid : todo_) solve_shard(shards_[sid], timed);
  }
}

void ShardSolver::emit_telemetry() {
  sim_.metrics_->add("fluidsim.solves.sharded");
  sim_.metrics_->add("fluidsim.shards.solved", todo_.size());
  sim_.metrics_->set_gauge("fluidsim.shards", static_cast<double>(shard_count()));
  obs::Histogram& h = sim_.metrics_->histogram("fluidsim.shard_solve_us");
  for (std::uint32_t sid : todo_) h.record(shards_[sid].solve_us);
}

void ShardSolver::solve(Scope scope) {
  settle();
  if (scope == Scope::All) {
    todo_.clear();
    for (std::uint32_t sid = 0; sid < shards_.size(); ++sid) {
      if (shards_[sid].in_use) todo_.push_back(sid);
    }
  }
  const bool telemetry =
      scope != Scope::Silent && sim_.cfg_.shard_telemetry && sim_.metrics_ != nullptr;
  run_shards(telemetry);
  for (std::uint32_t sid : todo_) {
    heap_update(sid, shards_[sid].next_finish);
    sim_.settle_links(shards_[sid].links);
  }
  if (telemetry) emit_telemetry();
}

core::Seconds ShardSolver::next_finish() const {
  return finish_heap_.empty() ? kInf : finish_heap_.front().finish;
}

void ShardSolver::pop_due(core::Seconds t, core::Seconds eps, std::vector<FlowId>& done) {
  while (!finish_heap_.empty() && finish_heap_.front().finish <= t) {
    const std::uint32_t sid = finish_heap_.front().sid;
    heap_erase(sid);
    // The shard's earliest flow finishes at or before t, so it completes
    // at least that one; its departure dirties the shard.
    const core::Seconds by = t + eps;
    for (FlowId f : shards_[sid].flows) {
      if (FluidSim::finish_of(sim_.drain_[f]) <= by) done.push_back(f);
    }
  }
}

void ShardSolver::heap_sift(std::uint32_t pos) {
  const Due e = finish_heap_[pos];
  const auto n = static_cast<std::uint32_t>(finish_heap_.size());
  auto place = [this](std::uint32_t at, const Due& d) {
    finish_heap_[at] = d;
    heap_pos_[d.sid] = at;
  };
  while (pos > 0) {
    const std::uint32_t up = (pos - 1) / 2;
    if (!due_before(e, finish_heap_[up])) break;
    place(pos, finish_heap_[up]);
    pos = up;
  }
  while (2 * pos + 1 < n) {
    std::uint32_t c = 2 * pos + 1;
    if (c + 1 < n && due_before(finish_heap_[c + 1], finish_heap_[c])) ++c;
    if (!due_before(finish_heap_[c], e)) break;
    place(pos, finish_heap_[c]);
    pos = c;
  }
  place(pos, e);
}

void ShardSolver::heap_update(std::uint32_t sid, core::Seconds finish) {
  if (!(finish < kInf)) {
    heap_erase(sid);
    return;
  }
  if (heap_pos_[sid] == kNoPos) {
    heap_pos_[sid] = static_cast<std::uint32_t>(finish_heap_.size());
    finish_heap_.push_back({finish, sid});
  } else {
    finish_heap_[heap_pos_[sid]].finish = finish;
  }
  heap_sift(heap_pos_[sid]);
}

void ShardSolver::heap_erase(std::uint32_t sid) {
  const std::uint32_t pos = heap_pos_[sid];
  if (pos == kNoPos) return;
  heap_pos_[sid] = kNoPos;
  const Due last = finish_heap_.back();
  finish_heap_.pop_back();
  if (last.sid == sid) return;
  finish_heap_[pos] = last;
  heap_pos_[last.sid] = pos;
  heap_sift(pos);
}

}  // namespace astral::net
