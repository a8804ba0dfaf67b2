// Flows-vs-solve-time scaling curves for the fluid simulator's max-min
// rate solver: the pod-sharded engine (FluidSim::resolve_rates) against
// the retained pre-change algorithm (MaxMinRef::solve), on the same
// permutation traffic over the micro_perf bench fabric, from 256 flows up
// to the million-flow point. Also sweeps solver thread counts at 64K
// flows (--threads=1,2,4,8 to override), measures the end-to-end
// permutation run (inject + drain), and verifies that the solver performs
// zero heap allocations in steady state via a global operator-new
// counting hook. The drains run in three rounds, each draining every size
// once, smallest first, so the 64K drain follows the 16K one and never a
// 1M drain; a point reads the median of its three runs. The drain rounds
// end with a 4M-flow drain, drain only (no solver comparison at that
// size), whose peak resident set is recorded. The end-to-end run must
// scale near-linearly: the 1M-flow drain may take at most 30x the 64K
// one (16x more flows; the worst median ratio over five runs on a
// 4-vCPU x86-64 VM, 24.6x, plus 20%), and the 4M drain at most 8x the 1M
// one (4x more flows, 2x linear), each read as the median of the
// per-round ratios, so a host that speeds up or slows down over the
// minutes the bench runs moves both sides of a ratio instead of deciding
// the gate; the per-round ratios are recorded. The thread pool must pay
// for itself: 4 lanes re-solve 64K flows at least 1.5x faster than 1
// lane. The thread sweep runs in three rounds too; each round times a
// raw std::thread calibration (perfbench's integer kernel) at 1 and 4
// threads, then warms one sim per lane count and re-solves them in turn,
// one timed re-solve each per step, so a burst of host load lands on
// every lane count alike, then times the calibration again. Each timed
// re-solve follows an untimed one of the same sim, so it starts from the
// warm caches of back-to-back re-solves (on a 4-vCPU x86-64 VM, one
// straight after the other lane counts' turns read 4-10% slower). A
// round reads each lane count's median re-solve, a sweep point the
// median of its rounds, and the gate the median over rounds of the
// 1-lane/4-lane ratio of those medians, over the rounds whose
// calibrations before and after the re-solves both show this host
// running 4 threads at least 2.5x faster than 1 (skipped when none
// does). The >=10x 64K speedup takes the best of the 64K point's own and
// the reference over the >=4-lane sweep points.
// Writes BENCH_fluid.json (path = argv[1], default ./BENCH_fluid.json)
// so the repo keeps a perf trajectory; bench/run_bench.sh drives it from
// a Release build. --baseline=FILE copies each point's end-to-end time
// from an earlier BENCH_fluid.json (say, the parent commit's, run on the
// same host) next to the new one, so the file carries before and after.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/json.h"
#include "net/fluid_sim.h"
#include "net/maxmin_ref.h"
#include "obs/metrics.h"
#include "topo/fabric.h"

// ---- allocation counting hook -------------------------------------------
// Counts every operator-new in the process; the steady-state solver check
// reads the delta around a resolve loop. Kept trivially malloc-backed so
// sanitizer builds still interpose correctly underneath. Every hook stays
// out of line: inlined into a caller, GCC pairs malloc with operator
// delete, or operator new with free(), and warns (-Wmismatched-new-delete).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace astral;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

topo::FabricParams bench_params() {
  topo::FabricParams p;
  p.rails = 8;
  p.hosts_per_block = 16;
  p.blocks_per_pod = 4;
  p.pods = 2;
  return p;
}

std::vector<net::FlowSpec> permutation_specs(const topo::Fabric& fabric, int flows) {
  auto hosts = fabric.topo().hosts();
  std::vector<net::FlowSpec> specs;
  specs.reserve(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    net::FlowSpec spec;
    spec.src_host = hosts[static_cast<std::size_t>(i) % hosts.size()];
    spec.dst_host = hosts[(static_cast<std::size_t>(i) + 40) % hosts.size()];
    spec.src_rail = i % 8;
    spec.dst_rail = i % 8;
    spec.size = 4 * 1024 * 1024;
    spec.tag = static_cast<std::uint64_t>(i);
    specs.push_back(spec);
  }
  return specs;
}

struct Point {
  int flows = 0;
  double solve_us_ref = 0.0;
  double solve_us_incremental = 0.0;
  double run_ms_end_to_end = 0.0;
  std::uint64_t steady_state_allocs = 0;
  int solve_iters = 0;
  bool drain_only = false;  ///< No solver comparison, only the drain.
};

constexpr int k64K = 65536;
constexpr int k1M = 1048576;
constexpr int k4M = 4194304;
/// Re-solves per lane count in each thread-sweep round.
constexpr int kSweepResolves = 9;

int iters_for(int flows) {
  return flows >= 262144 ? 3 : (flows >= 16384 ? 5 : (flows >= 4096 ? 20 : 100));
}

/// One end-to-end permutation run (inject + drain) on a fresh simulator,
/// in milliseconds.
double drain_ms(topo::Fabric& fabric, const std::vector<net::FlowSpec>& specs) {
  auto t0 = Clock::now();
  net::FluidSim sim(fabric);
  sim.inject_batch(specs);
  sim.run();
  return ms_since(t0);
}

/// The process's peak resident set so far, MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

Point measure(topo::Fabric& fabric, int flows) {
  Point pt;
  pt.flows = flows;
  auto specs = permutation_specs(fabric, flows);

  // Per-solve comparison on the full t=0 active set.
  {
    net::FluidSim sim(fabric);
    sim.inject_batch(specs);
    sim.run(0.0);  // admit + first solve, no progress
    const int iters = iters_for(flows);
    pt.solve_iters = iters;

    sim.resolve_rates();  // warm scratch capacities + shard caches
    std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
    auto t0 = Clock::now();
    for (int k = 0; k < iters; ++k) sim.resolve_rates();
    pt.solve_us_incremental = ms_since(t0) * 1000.0 / iters;
    pt.steady_state_allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs0;

    // Reference (pre-change) solver over the identical active set.
    std::vector<std::vector<topo::LinkId>> paths;
    paths.reserve(sim.active_flows().size());
    for (net::FlowId id : sim.active_flows()) paths.push_back(sim.flow(id).path);
    std::vector<double> caps(fabric.topo().link_count());
    for (std::size_t l = 0; l < caps.size(); ++l) {
      caps[l] = sim.effective_capacity(static_cast<topo::LinkId>(l));
    }
    std::vector<double> rates;
    net::MaxMinRef::solve(paths, caps, rates);  // warm thread-local scratch
    t0 = Clock::now();
    for (int k = 0; k < iters; ++k) net::MaxMinRef::solve(paths, caps, rates);
    pt.solve_us_ref = ms_since(t0) * 1000.0 / iters;
  }

  return pt;
}

volatile std::uint64_t g_spin_sink = 0;

/// A fixed integer kernel split into `threads` equal parts on raw
/// std::threads (the perfbench calibration kernel); returns milliseconds.
double spin_ms(int threads, std::uint64_t total_iters) {
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads) * 8, 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(t);
      for (std::uint64_t i = total_iters / static_cast<std::uint64_t>(threads); i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink[static_cast<std::size_t>(t) * 8] = x;  // one cache line apart
    });
  }
  for (std::thread& th : pool) th.join();
  const double ms = ms_since(t0);
  for (std::uint64_t v : sink) g_spin_sink = g_spin_sink ^ v;  // keeps the kernel live
  return ms;
}

struct Calibration {
  double one_lane_ms = 0.0;
  double four_lanes_ms = 0.0;
  double speedup() const { return four_lanes_ms > 0 ? one_lane_ms / four_lanes_ms : 0.0; }
};

struct SweepPoint {
  int threads = 0;
  std::vector<double> solve_us_rounds;  ///< Per round, its median re-solve.
  double solve_us = 0.0;                ///< Median of the rounds.
  std::uint64_t steady_state_allocs = 0;  ///< Summed over the rounds.
};

struct ThreadSweep {
  std::vector<SweepPoint> points;
  std::vector<Calibration> before;  ///< Per round, timed before its re-solves.
  std::vector<Calibration> after;   ///< Per round, timed after them.
  /// Per round: the 1-lane over the 4-lane median re-solve time; 0 when
  /// the sweep lacks 1 or 4 threads.
  std::vector<double> pool_speedup_4;
};

// Steady-state re-solve latency at `flows` for each thread count (same
// workload, solver configured with N lanes), in kSweepRounds rounds. Each
// round times the raw-thread calibration once at 1 and at 4 threads
// before its re-solves and once after, so a host that gets busy around
// the re-solves shows in the round's own calibration. Within a round
// every lane count's sim is warmed first, then the sims re-solve in turn,
// one timed re-solve each per step, so host load during the round lands
// on every lane count alike; a lane count reads the median of its timed
// re-solves, each taken straight after an untimed one of the same sim.
// Thread count must not change the rates (asserted bitwise elsewhere),
// only the wall clock.
ThreadSweep thread_sweep(topo::Fabric& fabric, int flows, const std::vector<int>& thread_counts) {
  constexpr int kSweepRounds = 3;
  constexpr std::uint64_t kSpinIters = 40'000'000;
  auto specs = permutation_specs(fabric, flows);
  ThreadSweep sweep;
  for (int threads : thread_counts) {
    sweep.points.emplace_back();
    sweep.points.back().threads = threads;
  }
  for (int round = 1; round <= kSweepRounds; ++round) {
    sweep.before.push_back({spin_ms(1, kSpinIters), spin_ms(4, kSpinIters)});
    std::vector<std::unique_ptr<net::FluidSim>> sims;
    for (const SweepPoint& sp : sweep.points) {
      net::FluidSimConfig cfg;
      cfg.solver_threads = sp.threads;
      sims.push_back(std::make_unique<net::FluidSim>(fabric, cfg));
      sims.back()->inject_batch(specs);
      sims.back()->run(0.0);
      sims.back()->resolve_rates();  // warm caches; creates the pool on first use
    }
    std::vector<std::vector<double>> resolve_us(sims.size());
    for (int k = 0; k < kSweepResolves; ++k) {
      for (std::size_t i = 0; i < sims.size(); ++i) {
        const std::uint64_t allocs0 = g_alloc_count.load(std::memory_order_relaxed);
        sims[i]->resolve_rates();  // untimed: back into cache after the others' turns
        const auto t0 = Clock::now();
        sims[i]->resolve_rates();
        const double us = ms_since(t0) * 1000.0;
        sweep.points[i].steady_state_allocs +=
            g_alloc_count.load(std::memory_order_relaxed) - allocs0;
        resolve_us[i].push_back(us);
      }
    }
    sims.clear();
    double us_1 = 0.0;
    double us_4 = 0.0;
    for (std::size_t i = 0; i < resolve_us.size(); ++i) {
      SweepPoint& sp = sweep.points[i];
      const double us = median(resolve_us[i]);
      sp.solve_us_rounds.push_back(us);
      if (sp.threads == 1) us_1 = us;
      if (sp.threads == 4) us_4 = us;
      std::printf("sweep round %d: threads=%2d  flows=%6d  solve=%8.1fus (median of %d)\n",
                  round, sp.threads, flows, us, kSweepResolves);
    }
    sweep.after.push_back({spin_ms(1, kSpinIters), spin_ms(4, kSpinIters)});
    sweep.pool_speedup_4.push_back(us_1 > 0 && us_4 > 0 ? us_1 / us_4 : 0.0);
    std::printf(
        "sweep round %d: raw-thread calibration %.2fx before, %.2fx after; 4-lane pool "
        "speedup %.2fx\n",
        round, sweep.before.back().speedup(), sweep.after.back().speedup(),
        sweep.pool_speedup_4.back());
  }
  for (SweepPoint& sp : sweep.points) sp.solve_us = median(sp.solve_us_rounds);
  return sweep;
}

// End-to-end milliseconds per flow count from an earlier BENCH_fluid.json;
// empty when the file is missing or malformed.
std::map<int, double> read_baseline(const std::string& path) {
  std::map<int, double> out;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = core::Json::parse(text.str());
  if (!doc) return out;
  for (const core::Json& p : (*doc)["points"].as_array()) {
    if (p["run_ms_end_to_end"].is_number()) {
      out[static_cast<int>(p["flows"].as_int())] = p["run_ms_end_to_end"].as_number();
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fluid.json";
  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::map<int, double> baseline;
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--baseline=", 11) == 0) {
      baseline = read_baseline(argv[a] + 11);
      if (baseline.empty()) {
        std::fprintf(stderr, "cannot read end-to-end points from %s\n", argv[a] + 11);
        return 1;
      }
    } else if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      thread_counts.clear();
      for (const char* p = argv[a] + 10; *p != '\0';) {
        thread_counts.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else {
      out_path = argv[a];
    }
  }
  topo::Fabric fabric(bench_params());

  const int sizes[] = {256, 1024, 4096, 16384, k64K, 262144, k1M};
  std::vector<Point> points;
  for (int flows : sizes) points.push_back(measure(fabric, flows));
  points.emplace_back();
  points.back().flows = k4M;
  points.back().drain_only = true;

  // End-to-end permutation runs (inject + drain), sharded solver: every
  // size once per round, smallest first. A point reads the median of its
  // runs; the gates, the medians of the per-round 1M/64K and 4M/1M
  // ratios. The 4M drain is the largest resident set of the run: the
  // process peak before and after it are recorded.
  constexpr int kDrainRounds = 3;
  std::vector<std::vector<double>> runs(points.size());
  std::vector<double> ratios;
  std::vector<double> ratios_4m;
  double rss_before_4m = 0.0;
  for (int round = 1; round <= kDrainRounds; ++round) {
    double ms_64k = 0.0;
    double ms_1m = 0.0;
    double ms_4m = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].flows == k4M && round == 1) rss_before_4m = peak_rss_mb();
      const double ms = drain_ms(fabric, permutation_specs(fabric, points[i].flows));
      runs[i].push_back(ms);
      if (points[i].flows == k64K) ms_64k = ms;
      if (points[i].flows == k1M) ms_1m = ms;
      if (points[i].flows == k4M) ms_4m = ms;
    }
    ratios.push_back(ms_1m / ms_64k);
    ratios_4m.push_back(ms_4m / ms_1m);
    std::printf("drain round %d: 64K %.2fms, 1M %.2fms, 4M %.2fms, ratios %.2fx (1M/64K) %.2fx "
                "(4M/1M)\n",
                round, ms_64k, ms_1m, ms_4m, ratios.back(), ratios_4m.back());
  }
  const double rss_4m = peak_rss_mb();
  for (std::size_t i = 0; i < points.size(); ++i) {
    Point& p = points[i];
    p.run_ms_end_to_end = median(runs[i]);
    if (p.drain_only) {
      std::printf("flows=%7d  (drain only)  end_to_end=%8.2fms  peak_rss=%.1fMiB (%.1fMiB before)\n",
                  p.flows, p.run_ms_end_to_end, rss_4m, rss_before_4m);
      continue;
    }
    std::printf(
        "flows=%7d  solve_ref=%10.1fus  solve_incr=%8.1fus  speedup=%5.1fx  "
        "end_to_end=%8.2fms  steady_allocs=%llu\n",
        p.flows, p.solve_us_ref, p.solve_us_incremental,
        p.solve_us_ref / p.solve_us_incremental, p.run_ms_end_to_end,
        static_cast<unsigned long long>(p.steady_state_allocs));
  }

  // Solver-step latency distribution via the obs metrics registry, from a
  // separate instrumented end-to-end run — the timed loops above stay
  // uninstrumented so the trajectory numbers measure the tracing-disabled
  // path.
  obs::Metrics metrics;
  {
    net::FluidSim sim(fabric);
    sim.set_metrics(&metrics);
    sim.inject_batch(permutation_specs(fabric, 4096));
    sim.run();
  }
  const obs::Histogram* solve_hist = metrics.find_histogram("fluidsim.solve_us");

  // Thread-count sweep at 64K flows (the acceptance point).
  const ThreadSweep thread_rounds = thread_sweep(fabric, 65536, thread_counts);
  const std::vector<SweepPoint>& sweep = thread_rounds.points;
  std::vector<double> one_lane_ms, four_lanes_ms;
  for (const auto* timings : {&thread_rounds.before, &thread_rounds.after}) {
    for (const Calibration& c : *timings) {
      one_lane_ms.push_back(c.one_lane_ms);
      four_lanes_ms.push_back(c.four_lanes_ms);
    }
  }
  const Calibration calib{median(one_lane_ms), median(four_lanes_ms)};
  std::printf("raw-thread calibration (median of rounds): 1 lane %.1fms, 4 lanes %.1fms (%.2fx)\n",
              calib.one_lane_ms, calib.four_lanes_ms, calib.speedup());

  double speedup_4k = 0.0;
  double ref_64k = 0.0;
  bool point_64k = false;
  bool point_1m = false;
  bool point_4m = false;
  std::uint64_t total_steady_allocs = 0;
  for (const Point& p : points) {
    if (p.flows == 4096) speedup_4k = p.solve_us_ref / p.solve_us_incremental;
    if (p.flows == k64K && p.run_ms_end_to_end > 0) {
      point_64k = true;
      ref_64k = p.solve_us_ref;
    }
    if (p.flows == k1M && p.run_ms_end_to_end > 0) point_1m = true;
    if (p.flows == k4M && p.run_ms_end_to_end > 0) point_4m = true;
    total_steady_allocs += p.steady_state_allocs;
  }
  // 16x the flows may cost at most 30x end to end, and 4x the flows at
  // most 8x: the medians of the per-round ratios.
  constexpr double kMaxEndToEndRatio1m64k = 30.0;
  constexpr double kMaxEndToEndRatio4m1m = 8.0;
  const double e2e_ratio = point_64k && point_1m ? median(ratios) : 0.0;
  const double e2e_ratio_4m = point_1m && point_4m ? median(ratios_4m) : 0.0;
  // Speedup vs the reference at 64K: the best of the scaling point's own
  // and the sweep's >=4-thread points (each the median of its rounds'
  // median re-solves), so a sweep narrowed via --threads falls back to
  // the scaling point.
  double speedup_64k = 0.0;
  for (const Point& p : points) {
    if (p.flows == k64K) speedup_64k = p.solve_us_ref / p.solve_us_incremental;
  }
  for (const SweepPoint& sp : sweep) {
    if (sp.threads >= 4 && ref_64k > 0 && sp.solve_us > 0) {
      speedup_64k = std::max(speedup_64k, ref_64k / sp.solve_us);
    }
    total_steady_allocs += sp.steady_state_allocs;
  }
  // 1-lane / 4-lane 64K re-solve: the median over the rounds whose own
  // raw-thread calibrations, before and after the re-solves, both reached
  // kPoolGateCalibration.
  constexpr double kPoolSpeedupRequired = 1.5;
  constexpr double kPoolGateCalibration = 2.5;
  std::vector<double> gated;
  std::vector<double> round_calibration;  ///< Per round, the lower of the two.
  double best_calibration = 0.0;
  for (std::size_t r = 0; r < thread_rounds.before.size(); ++r) {
    const double raw =
        std::min(thread_rounds.before[r].speedup(), thread_rounds.after[r].speedup());
    round_calibration.push_back(raw);
    best_calibration = std::max(best_calibration, raw);
    if (raw >= kPoolGateCalibration) gated.push_back(thread_rounds.pool_speedup_4[r]);
  }
  const bool has_1_and_4 = thread_rounds.pool_speedup_4.front() > 0;
  const double pool_speedup_4 =
      !has_1_and_4 ? 0.0 : median(gated.empty() ? thread_rounds.pool_speedup_4 : gated);
  std::string pool_status;
  bool pool_ok = true;
  if (!has_1_and_4) {
    pool_status = "skipped: the thread sweep lacks 1 or 4 threads";
  } else if (gated.empty()) {
    char why[128];
    std::snprintf(why, sizeof why,
                  "skipped: no round's raw 4-lane calibrations both reached %.1fx (best %.2fx)",
                  kPoolGateCalibration, best_calibration);
    pool_status = why;
  } else {
    pool_ok = pool_speedup_4 >= kPoolSpeedupRequired;
    pool_status = pool_ok ? "pass" : "fail";
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fluid_scaling\",\n");
  std::fprintf(f,
               "  \"workload\": \"permutation alltoall, 4MiB flows, "
               "rails=8 hosts_per_block=16 blocks_per_pod=4 pods=2\",\n");
  std::fprintf(f,
               "  \"run_ms_end_to_end\": \"median of 3 inject+drain runs, one per "
               "round; each round drains every size once, smallest first\",\n");
  std::fprintf(f,
               "  \"reference_solver\": \"MaxMinRef::solve — the pre-change "
               "FluidSim::recompute_rates algorithm, retained verbatim\",\n");
  std::fprintf(f,
               "  \"incremental_solver\": \"FluidSim::resolve_rates — "
               "pod-sharded engine: union-find components kept across "
               "events, shard CSRs + capacity tier, per-shard lazy "
               "min-heaps, optional shared-cursor thread pool\",\n");
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f, "    {\"flows\": %d, ", p.flows);
    if (!p.drain_only) {
      std::fprintf(f,
                   "\"solve_us_ref\": %.2f, \"solve_us_incremental\": %.2f, "
                   "\"solve_speedup\": %.2f, ",
                   p.solve_us_ref, p.solve_us_incremental, p.solve_us_ref / p.solve_us_incremental);
    }
    std::fprintf(f, "\"run_ms_end_to_end\": %.2f, ", p.run_ms_end_to_end);
    if (auto it = baseline.find(p.flows); it != baseline.end()) {
      std::fprintf(f, "\"run_ms_end_to_end_baseline\": %.2f, ", it->second);
    }
    if (p.drain_only) {
      std::fprintf(f, "\"drain_only\": true, \"peak_rss_mb\": %.1f, \"peak_rss_mb_before\": %.1f}",
                   rss_4m, rss_before_4m);
    } else {
      std::fprintf(f, "\"steady_state_allocs\": %llu, \"solve_iters\": %d}",
                   static_cast<unsigned long long>(p.steady_state_allocs), p.solve_iters);
    }
    std::fprintf(f, "%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (solve_hist != nullptr && solve_hist->count() > 0) {
    std::fprintf(f,
                 "  \"solve_histogram\": {\"flows\": 4096, \"count\": %llu, "
                 "\"p50_us\": %.3f, \"p90_us\": %.3f, \"p99_us\": %.3f, "
                 "\"max_us\": %.3f},\n",
                 static_cast<unsigned long long>(solve_hist->count()),
                 solve_hist->percentile(50), solve_hist->percentile(90),
                 solve_hist->percentile(99), solve_hist->max());
  }
  auto print_list = [f](const std::vector<double>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) std::fprintf(f, "%s%.2f", i > 0 ? ", " : "", v[i]);
  };
  std::fprintf(f,
               "  \"thread_sweep\": {\"flows\": 65536, \"solve_us\": \"median of %zu rounds, each "
               "the median of %d re-solves taken in turn with the other lane counts, each straight "
               "after an untimed one\", "
               "\"points\": [\n",
               thread_rounds.before.size(), kSweepResolves);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(f, "    {\"threads\": %d, \"solve_us\": %.2f, \"solve_us_rounds\": [",
                 sweep[i].threads, sweep[i].solve_us);
    print_list(sweep[i].solve_us_rounds);
    std::fprintf(f, "], \"steady_state_allocs\": %llu}%s\n",
                 static_cast<unsigned long long>(sweep[i].steady_state_allocs),
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"calibration\": {\"kernel\": \"xorshift integer spin on raw "
               "std::threads, as perfbench; one trial before and one after each sweep "
               "round's re-solves\", \"one_lane_ms\": %.2f, \"four_lanes_ms\": %.2f, "
               "\"lane_speedup\": %.2f, \"lane_speedup_rounds\": [",
               calib.one_lane_ms, calib.four_lanes_ms, calib.speedup());
  print_list(round_calibration);
  std::fprintf(f, "], \"lane_speedup_before_rounds\": [");
  std::vector<double> raw_rounds;
  for (const Calibration& c : thread_rounds.before) raw_rounds.push_back(c.speedup());
  print_list(raw_rounds);
  std::fprintf(f, "], \"lane_speedup_after_rounds\": [");
  raw_rounds.clear();
  for (const Calibration& c : thread_rounds.after) raw_rounds.push_back(c.speedup());
  print_list(raw_rounds);
  std::fprintf(f, "]},\n");
  std::fprintf(f, "  \"criteria\": {\n");
  std::fprintf(f, "    \"solve_speedup_4k\": %.2f,\n", speedup_4k);
  std::fprintf(f, "    \"solve_speedup_4k_required\": 3.0,\n");
  std::fprintf(f, "    \"solve_speedup_64k\": %.2f,\n", speedup_64k);
  std::fprintf(f, "    \"solve_speedup_64k_required\": 10.0,\n");
  std::fprintf(f, "    \"point_64k_completed\": %s,\n", point_64k ? "true" : "false");
  std::fprintf(f, "    \"point_1m_completed\": %s,\n", point_1m ? "true" : "false");
  std::fprintf(f, "    \"end_to_end_ratio_1m_64k\": %.2f,\n", e2e_ratio);
  std::fprintf(f, "    \"end_to_end_ratio_1m_64k_rounds\": [");
  print_list(ratios);
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"end_to_end_ratio_1m_64k_max\": %.1f,\n", kMaxEndToEndRatio1m64k);
  std::fprintf(f, "    \"point_4m_completed\": %s,\n", point_4m ? "true" : "false");
  std::fprintf(f, "    \"end_to_end_ratio_4m_1m\": %.2f,\n", e2e_ratio_4m);
  std::fprintf(f, "    \"end_to_end_ratio_4m_1m_rounds\": [");
  print_list(ratios_4m);
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"end_to_end_ratio_4m_1m_max\": %.1f,\n", kMaxEndToEndRatio4m1m);
  std::fprintf(f, "    \"pool_speedup_4\": %.2f,\n", pool_speedup_4);
  std::fprintf(f, "    \"pool_speedup_4_rounds\": [");
  print_list(thread_rounds.pool_speedup_4);
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"pool_speedup_4_gated_rounds\": %zu,\n", gated.size());
  std::fprintf(f, "    \"pool_speedup_4_required\": %.1f,\n", kPoolSpeedupRequired);
  std::fprintf(f, "    \"pool_speedup_4_enforced_from_calibration\": %.1f,\n",
               kPoolGateCalibration);
  std::fprintf(f, "    \"pool_speedup_4_status\": \"%s\",\n", pool_status.c_str());
  std::fprintf(f, "    \"steady_state_allocs_total\": %llu\n",
               static_cast<unsigned long long>(total_steady_allocs));
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  if (solve_hist != nullptr && solve_hist->count() > 0) {
    std::printf("solve histogram (4k flows, instrumented run): count=%llu "
                "p50=%.1fus p99=%.1fus max=%.1fus\n",
                static_cast<unsigned long long>(solve_hist->count()),
                solve_hist->percentile(50), solve_hist->percentile(99),
                solve_hist->max());
  }
  std::printf(
      "wrote %s (4k speedup %.1fx, 64k speedup %.1fx, 1M point %s, 4M point %s, "
      "1M/64K end to end %.1fx of at most %.0fx, 4M/1M %.1fx of at most %.0fx, "
      "4-lane pool speedup %.2fx: %s)\n",
      out_path.c_str(), speedup_4k, speedup_64k, point_1m ? "completed" : "MISSING",
      point_4m ? "completed" : "MISSING", e2e_ratio, kMaxEndToEndRatio1m64k, e2e_ratio_4m,
      kMaxEndToEndRatio4m1m, pool_speedup_4, pool_status.c_str());

  const bool ok = speedup_4k >= 3.0 && speedup_64k >= 10.0 && point_64k && point_1m &&
                  point_4m && e2e_ratio <= kMaxEndToEndRatio1m64k &&
                  e2e_ratio_4m <= kMaxEndToEndRatio4m1m && total_steady_allocs == 0 && pool_ok;
  return ok ? 0 : 2;
}
