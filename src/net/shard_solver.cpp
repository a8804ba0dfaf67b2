#include "net/shard_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/thread_pool.h"
#include "net/fluid_sim.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace astral::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

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
  link_shard_.assign(nlinks, 0);
  link_local_.assign(nlinks, 0);
}

ShardSolver::~ShardSolver() = default;

void ShardSolver::bump_build_epoch() {
  if (++build_epoch_ == 0) {
    // Wrapped: stale stamps from 2^64 builds ago could alias the counter.
    // Reset every stamp array and restart the counter above the reset
    // value (see the matching guard in FluidSim::batch_is_island).
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

void ShardSolver::rebuild_structure(std::span<const FlowId> flows, bool republish) {
  bump_build_epoch();
  const std::uint64_t e = build_epoch_;
  if (flow_local_.size() < sim_.flows_.size()) {
    flow_local_.resize(sim_.flows_.size());
  }

  // Union-find over each flow's links: two links share a shard iff some
  // chain of flows couples them.
  for (FlowId f : flows) {
    std::uint32_t prev = topo::kInvalidLink;
    for (topo::LinkId l : sim_.flows_[f].path) {
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

  // Shard ids by first appearance in the input order: thread-count-
  // independent and stable for a given input.
  nshards_ = 0;
  unsharded_.clear();
  for (FlowId f : flows) {
    const auto& path = sim_.flows_[f].path;
    if (path.empty()) {
      unsharded_.push_back(f);  // stranded: no path, rate pinned to zero
      continue;
    }
    const std::uint32_t r = uf_find(path.front());
    if (root_stamp_[r] != e) {
      root_stamp_[r] = e;
      if (shards_.size() <= nshards_) shards_.emplace_back();
      shards_[nshards_].flows.clear();
      shards_[nshards_].links.clear();
      root_shard_[r] = static_cast<std::uint32_t>(nshards_);
      ++nshards_;
    }
    Shard& s = shards_[root_shard_[r]];
    flow_local_[f] = static_cast<std::uint32_t>(s.flows.size());
    s.flows.push_back(f);
  }

  // Collect per-shard links and extend the published live-link list in
  // first-touch input order, which golden traces observe (stats
  // accumulation walks it).
  if (republish) sim_.clear_live();
  for (FlowId f : flows) {
    for (topo::LinkId l : sim_.flows_[f].path) {
      if (!sim_.is_live_[l]) {
        sim_.is_live_[l] = 1;
        sim_.live_links_.push_back(l);
      }
      if (seen_stamp_[l] == e) continue;
      seen_stamp_[l] = e;
      const std::uint32_t sid = root_shard_[uf_find(l)];
      link_shard_[l] = sid;
      shards_[sid].links.push_back(l);
    }
  }

  // Compile each shard to dense local form.
  for (std::size_t si = 0; si < nshards_; ++si) {
    Shard& s = shards_[si];
    std::sort(s.links.begin(), s.links.end());
    for (std::uint32_t i = 0; i < s.links.size(); ++i) link_local_[s.links[i]] = i;
    const std::size_t nl = s.links.size();
    const std::size_t nf = s.flows.size();

    s.path_off.clear();
    s.path_lnk.clear();
    for (FlowId f : s.flows) {
      s.path_off.push_back(static_cast<std::uint32_t>(s.path_lnk.size()));
      for (topo::LinkId l : sim_.flows_[f].path) s.path_lnk.push_back(link_local_[l]);
    }
    s.path_off.push_back(static_cast<std::uint32_t>(s.path_lnk.size()));

    s.mem_off.clear();
    s.mem_flow.clear();
    for (topo::LinkId g : s.links) {
      s.mem_off.push_back(static_cast<std::uint32_t>(s.mem_flow.size()));
      for (const auto& m : sim_.members_[g]) {
        s.mem_flow.push_back(flow_local_[m.flow]);
      }
    }
    s.mem_off.push_back(static_cast<std::uint32_t>(s.mem_flow.size()));

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
  }
}

void ShardSolver::rebuild_caps(std::span<const FlowId> flows) {
  for (std::size_t si = 0; si < nshards_; ++si) {
    Shard& s = shards_[si];
    for (std::size_t li = 0; li < s.links.size(); ++li) {
      s.cap[li] = sim_.effcap_[s.links[li]];
    }
    std::fill(s.demand.begin(), s.demand.end(), 0.0);
  }

  // Offered demand at each hop is the prefix-min of upstream link
  // capacities: a degraded downlink sees traffic arriving at full
  // upstream rate, which is what triggers PFC back-pressure. Sums
  // accumulate in input order, so they do not depend on the partition.
  for (FlowId f : flows) {
    double prefix = kInf;
    for (topo::LinkId l : sim_.flows_[f].path) {
      const double cap_l = sim_.effcap_[l];
      shards_[link_shard_[l]].demand[link_local_[l]] += prefix == kInf ? cap_l : prefix;
      prefix = std::min(prefix, cap_l);
    }
  }

  for (std::size_t si = 0; si < nshards_; ++si) {
    Shard& s = shards_[si];
    const std::size_t nl = s.links.size();
    s.heap0.clear();
    for (std::size_t li = 0; li < nl; ++li) {
      const double cap = s.cap[li];
      s.overload[li] =
          cap > 0 ? s.demand[li] / cap : (s.demand[li] > 0 ? 1e9 : 0.0);
      s.nmembers[li] = s.mem_off[li + 1] - s.mem_off[li];
      // Every shard link has members, so every link enters the heap with
      // its initial share — remcap/unfrozen at their starting values.
      s.heap0.emplace_back(
          cap > 0 ? cap / static_cast<double>(s.nmembers[li]) : 0.0,
          static_cast<std::uint32_t>(li));
    }
    std::make_heap(s.heap0.begin(), s.heap0.end(), LocalHeapCmp{});
  }
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

  // Publish into the simulator's global view. Shards own disjoint flows
  // and links, so concurrent publishes never touch the same element.
  for (std::size_t i = 0; i < nf; ++i) {
    sim_.flows_[s.flows[i]].rate = s.rate[i];
  }
  for (std::size_t li = 0; li < nl; ++li) {
    const topo::LinkId g = s.links[li];
    sim_.link_demand_[g] = s.demand[li];
    sim_.link_overload_[g] = s.overload[li];
    sim_.link_rate_[g] = s.link_rate[li];
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
  if (threads > 1 && nshards_ > 1) {
    if (!pool_ || pool_->lanes() != threads) {
      pool_ = std::make_unique<core::ThreadPool>(threads);
    }
    pool_->parallel_for(nshards_, [this, timed](std::size_t i, int) {
      solve_shard(shards_[i], timed);
    });
  } else {
    for (std::size_t i = 0; i < nshards_; ++i) solve_shard(shards_[i], timed);
  }
  for (FlowId f : unsharded_) sim_.flows_[f].rate = 0.0;
}

void ShardSolver::emit_telemetry() {
  if (sim_.metrics_ != nullptr) {
    sim_.metrics_->add("fluidsim.solves.sharded");
    sim_.metrics_->add("fluidsim.shards.solved", nshards_);
    sim_.metrics_->set_gauge("fluidsim.shards", static_cast<double>(nshards_));
    obs::Histogram& h = sim_.metrics_->histogram("fluidsim.shard_solve_us");
    for (std::size_t si = 0; si < nshards_; ++si) {
      h.record(shards_[si].solve_us);
    }
  }
  if (sim_.tracer_ != nullptr) {
    // Spans land on the Link track (FluidSim's infrastructure track);
    // ts is simulation time, dur is wall-clock solve time in "sim
    // microseconds" — a profiling aid, not a simulated duration.
    for (std::size_t si = 0; si < nshards_; ++si) {
      sim_.tracer_->span(obs::Track::Link, "solver.shard", sim_.now_,
                         shards_[si].solve_us * 1e-6, {},
                         static_cast<double>(shards_[si].flows.size()));
    }
  }
}

void ShardSolver::solve() {
  if (!structure_valid_) {
    rebuild_structure(sim_.active_, /*republish=*/true);
    rebuild_caps(sim_.active_);
    structure_valid_ = true;
    caps_valid_ = true;
  } else if (!caps_valid_) {
    rebuild_caps(sim_.active_);
    caps_valid_ = true;
  }
  const bool telemetry = sim_.cfg_.shard_telemetry &&
                         (sim_.metrics_ != nullptr || sim_.tracer_ != nullptr);
  run_shards(telemetry);
  if (telemetry) emit_telemetry();
}

void ShardSolver::solve_island(std::span<const FlowId> wave) {
  rebuild_structure(wave, /*republish=*/false);
  rebuild_caps(wave);
  structure_valid_ = false;  // the shards now describe the wave only
  run_shards(/*timed=*/false);
}

}  // namespace astral::net
