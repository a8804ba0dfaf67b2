// The max-min rate engine behind FluidSim: every full solve and every
// island wave goes through it.
//
// The active constraint graph (links as vertices, "some flow crosses
// both" as edges) decomposes along the fabric's locality structure:
// rail-aligned traffic never leaves its rail subgraph, pod-local traffic
// never leaves its pod. This engine discovers the connected bottleneck
// components with a union-find over the input flows' paths, compiles
// each component into a dense shard-local CSR problem (local link ids,
// contiguous path and member arrays, per-shard arenas), and solves the
// shards independently — concurrently on a core::ThreadPool when
// configured, or inline. Progressive filling inside a shard freezes links
// in (share, link id) heap order: local link ids ascend with global ids,
// demand accumulates in input order, and freeze order mirrors the
// persistent member lists. Every shard is a function of its own inputs
// only, so rates are bit-identical across thread counts, and an island
// wave solved alone gets exactly the rates a full solve would give it.
//
// Two cache tiers make repeated full solves cheap: the *structure* tier
// (partition, CSRs, live-link list) is invalidated by membership changes
// (admission, completion, abort, reroute); the *capacity* tier (per-link
// caps, offered demand, overloads, the initial heap — all pure functions
// of structure + effective capacities) is invalidated by degradations.
// A clean re-solve only replays the freeze loop over cached arenas and
// allocates nothing. An island solve compiles the wave's shards over the
// same arenas; they describe the wave only, so the structure tier stays
// invalid afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/flow.h"
#include "topo/types.h"

namespace astral::core {
class ThreadPool;
}

namespace astral::net {

class FluidSim;

class ShardSolver {
 public:
  explicit ShardSolver(FluidSim& sim);
  ~ShardSolver();

  ShardSolver(const ShardSolver&) = delete;
  ShardSolver& operator=(const ShardSolver&) = delete;

  /// Membership changed (admit / complete / abort / reroute): partition,
  /// CSRs and the live-link list must be rebuilt at the next solve.
  void invalidate_structure() { structure_valid_ = false; }

  /// Effective capacities changed: demand/overload/initial-heap caches
  /// must be rebuilt at the next solve.
  void invalidate_caps() { caps_valid_ = false; }

  /// Full max-min solve over the simulator's active set: publishes every
  /// active flow's rate and rebuilds the published per-link view.
  void solve();

  /// Solves an arrival wave whose links carry no other flows (see
  /// FluidSim::batch_is_island): publishes the wave's rates and appends
  /// its links to the published view; every other published value stays.
  void solve_island(std::span<const FlowId> wave);

  /// Shards used by the most recent full or island solve (0 before any).
  std::size_t shard_count() const { return nshards_; }

  /// Test hook for the epoch-wraparound guard: fast-forwards the build
  /// counter so the next builds exercise the wrap reset path.
  void debug_set_epoch_counter(std::uint64_t value) { build_epoch_ = value; }

 private:
  /// One connected bottleneck component, compiled to dense local form.
  /// Local link ids ascend with global ids (deterministic tie-breaks);
  /// local flow ids follow input order.
  struct Shard {
    std::vector<FlowId> flows;            ///< Global ids, input order.
    std::vector<topo::LinkId> links;      ///< Global ids, ascending.
    // Path CSR: per local flow, the local ids of its links in hop order.
    std::vector<std::uint32_t> path_off;
    std::vector<std::uint32_t> path_lnk;
    // Member CSR: per local link, local flow ids mirroring the order of
    // FluidSim::members_ (the freeze order).
    std::vector<std::uint32_t> mem_off;
    std::vector<std::uint32_t> mem_flow;
    // Capacity tier: pure functions of structure + effective caps.
    std::vector<double> cap;
    std::vector<double> demand;
    std::vector<double> overload;
    std::vector<std::uint32_t> nmembers;
    std::vector<std::pair<double, std::uint32_t>> heap0;  ///< Heapified.
    // Per-solve arenas (reset by copy/fill, never reallocated).
    std::vector<double> remcap;
    std::vector<double> link_rate;
    std::vector<double> rate;
    std::vector<std::uint32_t> unfrozen;
    std::vector<char> frozen;
    std::vector<char> changed_mark;
    std::vector<std::pair<double, std::uint32_t>> heap;
    std::vector<std::uint32_t> changed_list;
    double solve_us = 0.0;  ///< Wall time of the last solve (telemetry).
  };

  void bump_build_epoch();
  std::uint32_t uf_find(std::uint32_t x);
  /// Partitions `flows` into shards and compiles them. A full solve
  /// (`republish`) rebuilds the published live-link list in first-touch
  /// order; an island appends its new links to it instead.
  void rebuild_structure(std::span<const FlowId> flows, bool republish);
  void rebuild_caps(std::span<const FlowId> flows);
  /// Solves and publishes every shard; flows with no path get rate 0.
  void run_shards(bool timed);
  void solve_shard(Shard& s, bool timed);
  void emit_telemetry();

  FluidSim& sim_;
  bool structure_valid_ = false;
  bool caps_valid_ = false;

  std::vector<Shard> shards_;  ///< Reused across builds; only nshards_ live.
  std::size_t nshards_ = 0;
  std::vector<FlowId> unsharded_;  ///< Input flows with no path (stranded).

  // Build-time scratch, all epoch-stamped so builds never clear arrays.
  std::uint64_t build_epoch_ = 0;
  std::vector<std::uint64_t> uf_stamp_;    ///< Link seen by union-find.
  std::vector<std::uint32_t> uf_parent_;
  std::vector<std::uint64_t> root_stamp_;  ///< Root assigned a shard id.
  std::vector<std::uint32_t> root_shard_;
  std::vector<std::uint64_t> seen_stamp_;  ///< Link collected this build.
  std::vector<std::uint32_t> link_shard_;  ///< Owning shard per link.
  std::vector<std::uint32_t> link_local_;  ///< Local id within its shard.
  std::vector<std::uint32_t> flow_local_;  ///< Local id within its shard.

  std::unique_ptr<core::ThreadPool> pool_;  ///< Lazily created.
};

}  // namespace astral::net
