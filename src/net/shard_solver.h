// The max-min rate engine behind FluidSim: every full solve and every
// island wave goes through it.
//
// The active constraint graph (links as vertices, "some flow crosses
// both" as edges) decomposes along the fabric's locality structure:
// rail-aligned traffic never leaves its rail subgraph, pod-local traffic
// never leaves its pod. This engine keeps that decomposition — the
// connected bottleneck components of the active paths, each compiled into
// a dense shard-local CSR problem (local link ids, contiguous path and
// member arrays, per-shard arenas) — across events, and solves the shards
// independently: concurrently on a core::ThreadPool when configured (one
// item per dirty shard, taken from a shared cursor), or inline.
// Progressive filling inside a shard freezes links in (share,
// link id) heap order: local link ids ascend with global ids and demand
// accumulates in active-set order; the order in which a link lists its
// members enters no result, since a freeze step gives every unfrozen
// member of a link the same level. Every shard is a function of its own
// inputs only, so rates are bit-identical across thread counts, and a
// shard's rates stay exact for as long as those inputs do not change.
//
// FluidSim reports every change to those inputs through the hooks below;
// the solver is the one record of which flows cross which link, and of
// whether a solve is due. Each reported change marks the owning shard
// dirty: a membership
// change (admission, completion, abort, reroute) marks it
// structure-dirty, a capacity change (degradation, link down/up) marks it
// caps-dirty. The active set only grows at its end and loses flows in
// place, so no change reorders another shard's flows. A solve first
// *settles* the partition: the newly joined flows and the surviving flows
// of structure-dirty shards are collected in active-set order (each
// dirty shard's own flow list and the joined list, merged by admission
// rank, so a settle never walks the active set) and re-partitioned with
// a union-find (merges and splits fall out of this),
// the dirty shards' slots are recycled for the new shards, links left
// without members are zeroed, and caps-dirty shards recompute their
// capacity tier (per-link caps, offered demand, overloads, the initial
// heap). Only the shards settled this way are solved; clean shards keep
// their published rates untouched. An island wave is a settle whose
// dirty set holds only new flows.
//
// A solved shard publishes its rates (a flow whose rate bits change is
// re-based to now) and the earliest finish of its flows into a heap of
// per-shard minimum finishes, so FluidSim's next completion is the heap
// top, and pop_due hands it the flows of every shard due at an instant.
// A shard's entry stays exact until the shard is dirtied, since only its
// own publish moves its flows. See DESIGN.md §11.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/units.h"
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

  /// A flow took up memberships on its path (admission, or the re-add
  /// after a reroute). Shards owning any of its links become
  /// structure-dirty; the flow joins a shard at the next solve.
  void flow_joined(FlowId id);

  /// A flow gave up its memberships (completion, abort, reroute). Its
  /// shard becomes structure-dirty. Removal keeps the active-set order of
  /// the survivors, so no other shard's cached order goes stale.
  void flow_left(FlowId id);

  /// A link's effective capacity changed. Its shard becomes caps-dirty.
  void link_changed(topo::LinkId id);

  /// True while a change awaits a solve: a shard is structure-dirty or
  /// caps-dirty, or a flow joined since the last settle. Rates read while
  /// a solve is due may be stale.
  bool solve_due() const { return !dirty_.empty() || !caps_dirty_.empty() || !joined_.empty(); }

  /// Asked right after an admission wave's flow_joined calls: true when
  /// no shard is structure-dirty or caps-dirty, so a solve settles only
  /// the joined flows and touches no other shard. On a partition the last
  /// solve settled, that means no link of the wave carries another flow:
  /// the wave is its own island.
  bool wave_is_island() const { return dirty_.empty() && caps_dirty_.empty(); }

  /// Asked right after a completion wave's flow_left calls on a settled
  /// partition: true when every structure-dirty shard has lost all its
  /// flows, so the wave shared no link with a survivor (a shard is
  /// connected, so a survivor in a dirty shard shares a link with some
  /// departed flow). A solve then only retires those shards.
  bool wave_is_detached() const;

  /// What solve() re-solves, and whether it reports shard telemetry.
  enum class Scope : std::uint8_t {
    Silent,  ///< Settled shards only, no telemetry (island waves, and
             ///< completion waves or aborts that left no survivor on
             ///< their links).
    Full,    ///< Settled shards only, with telemetry (a full solve).
    All,     ///< Every shard, with telemetry (FluidSim::resolve_rates).
  };

  /// Settles the partition and solves the shards it changed (or every
  /// shard, for Scope::All), publishing their rates and per-link view.
  void solve(Scope scope);

  /// The earliest finish of any flow, from the heap of per-shard minimum
  /// finishes; infinity when every shard is stalled or none exists.
  core::Seconds next_finish() const;

  /// Takes every shard whose minimum finish is at or before t off the
  /// heap and appends its flows that finish by t + eps to `done`, in
  /// active-set order, shard by shard.
  void pop_due(core::Seconds t, core::Seconds eps, std::vector<FlowId>& done);

  /// Shards in the current partition: the connected components of the
  /// active paths once the last solve settled them (0 before any).
  std::size_t shard_count() const { return shards_.size() - free_.size(); }

  /// Test hook for the epoch-wraparound guard: fast-forwards the build
  /// epoch so the next builds exercise the wrap reset path.
  void debug_set_build_epoch(std::uint64_t value) { build_epoch_ = value; }

 private:
  /// One connected bottleneck component, compiled to dense local form.
  /// Local link ids ascend with global ids (deterministic tie-breaks);
  /// local flow ids follow active-set order.
  struct Shard {
    std::vector<FlowId> flows;            ///< Global ids, active-set order.
    std::vector<topo::LinkId> links;      ///< Global ids, ascending.
    // Path CSR: per local flow, the local ids of its links in hop order.
    std::vector<std::uint32_t> path_off;
    std::vector<std::uint32_t> path_lnk;
    // The member CSR: per local link, the local ids of the flows crossing it,
    // ascending. A counting sort of the path CSR builds it.
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
    std::uint32_t live_flows = 0;  ///< Flows that have not left since compile.
    bool in_use = false;           ///< Holds a component (not on the free list).
    bool dirty = false;            ///< Membership or order changed.
    bool caps_dirty = false;       ///< A link's capacity changed.
    double solve_us = 0.0;         ///< Wall time of the last solve (telemetry).
    core::Seconds next_finish = 0.0;  ///< Earliest finish of its flows at its last publish.
    bool finish_known = false;        ///< next_finish is up to date for these flows.
  };

  void bump_build_epoch();
  std::uint32_t uf_find(std::uint32_t x);
  void mark_dirty(std::uint32_t sid);
  /// Collects the flows to re-partition, in active-set order, into
  /// collect_: every newly joined flow plus the surviving flows of the
  /// structure-dirty shards, merged by admission rank. Costs
  /// O(collected * log dirty shards) plus the departed entries of the
  /// dirty shards' lists; it reads no active-set slot (builds without
  /// NDEBUG also scan the active set and assert the same sequence).
  void collect_flows();
  /// Settles the partition (see the file comment) and lists the shards
  /// that need a solve in todo_.
  void settle();
  /// Partitions collect_ into new shards and compiles them.
  void compile_collected();
  void rebuild_caps(Shard& s);
  void run_shards(bool timed);
  void solve_shard(Shard& s, bool timed);
  void emit_telemetry();
  /// Sifts the heap entry at `pos` to its place.
  void heap_sift(std::uint32_t pos);
  /// Puts a shard in the finish heap at `finish`, or takes it out when
  /// that is infinite.
  void heap_update(std::uint32_t sid, core::Seconds finish);
  void heap_erase(std::uint32_t sid);

  FluidSim& sim_;

  std::vector<Shard> shards_;         ///< Slots; free ones are on free_.
  std::vector<std::uint32_t> free_;   ///< Recycled slots, reused LIFO.
  std::vector<std::uint32_t> dirty_;  ///< Structure-dirty slots.
  std::vector<std::uint32_t> caps_dirty_;  ///< Caps-dirty slots.
  std::vector<std::uint32_t> todo_;   ///< Slots the current solve solves.
  std::vector<FlowId> joined_;        ///< Flows joined since the last settle.
  std::vector<FlowId> collect_;       ///< Flows being re-partitioned.
  /// A collect_flows merge cursor: a source list (a dirty shard's flows,
  /// or joined_) at the position of its next survivor, and that flow's
  /// admission rank.
  struct Cursor {
    std::uint32_t rank;
    std::uint32_t src;
    std::uint32_t pos;
  };
  std::vector<Cursor> merge_;         ///< collect_flows' cursor heap.
  std::vector<FlowId> scan_check_;    ///< collect_flows' debug scan.
  std::vector<std::uint32_t> collect_off_;  ///< Their paths, CSR offsets...
  std::vector<topo::LinkId> collect_lnk_;   ///< ...and links in hop order.
  std::vector<topo::LinkId> orphans_;  ///< Links of retired shards.
  /// The earliest finish of each shard as of its last publish, for the
  /// shards where it is finite: a min-heap on (finish, slot). A shard's
  /// entry is exact until the shard is dirtied again.
  struct Due {
    core::Seconds finish;
    std::uint32_t sid;
  };
  std::vector<Due> finish_heap_;
  std::vector<std::uint32_t> heap_pos_;  ///< Per slot: index in finish_heap_, or kNoPos.

  // Ownership, kept across solves.
  std::vector<std::uint32_t> flow_shard_;  ///< Slot, kJoined or kNoShard.
  std::vector<std::uint32_t> link_shard_;  ///< Owning slot or kNoShard.
  std::vector<std::uint32_t> link_local_;  ///< Local id within its shard.

  // Build-time scratch, all epoch-stamped so builds never clear arrays.
  std::uint64_t build_epoch_ = 0;
  std::vector<std::uint64_t> uf_stamp_;    ///< Link seen by union-find.
  std::vector<std::uint32_t> uf_parent_;
  std::vector<std::uint64_t> root_stamp_;  ///< Root assigned a shard.
  std::vector<std::uint32_t> root_shard_;
  std::vector<std::uint64_t> seen_stamp_;  ///< Link collected this build.

  std::unique_ptr<core::ThreadPool> pool_;  ///< Lazily created.
};

}  // namespace astral::net
