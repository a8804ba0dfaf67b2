#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "monitor/fleet_runtime.h"
#include "monitor/stream_analyzer.h"
#include "net/fluid_sim.h"
#include "obs/metrics.h"
#include "topo/fabric.h"

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Checks::merge(const Checks& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double tail_percentile(std::size_t samples) {
  if (samples <= 20) return 50.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(samples));
}

namespace {

using namespace astral;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Bytes the allocator holds for the program (heap arenas + mmapped).
double heap_in_use() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

/// The 1024-GPU bench fabric: 8 rails, 16 hosts per block, 4 blocks per
/// pod, 2 pods (128 hosts).
topo::FabricParams bench_params() {
  topo::FabricParams p;
  p.rails = 8;
  p.hosts_per_block = 16;
  p.blocks_per_pod = 4;
  p.pods = 2;
  return p;
}

constexpr core::Bytes kMiB = 1024 * 1024;
constexpr int kDrainFlows = 65536;

// ---- drains ---------------------------------------------------------------

/// A seeded host permutation with no fixed points (one n-cycle): flow i
/// leaves host i mod n on rail i mod 8 for the same rail of that host's
/// partner, 4 MiB each, all at t=0. Every host thus sends 512 flows to one
/// partner over one rail, so completions arrive in a few large waves.
std::vector<net::FlowSpec> perm_specs(const topo::Fabric& fabric, std::uint64_t seed) {
  const auto hosts = fabric.topo().hosts();
  const int rails = fabric.params().rails;
  const std::size_t n = hosts.size();
  core::Rng rng(seed);
  std::vector<std::size_t> partner(n);
  std::iota(partner.begin(), partner.end(), std::size_t{0});
  for (std::size_t i = n - 1; i > 0; --i) {  // Sattolo's shuffle
    std::swap(partner[i], partner[rng.uniform_int(i)]);
  }
  std::vector<net::FlowSpec> specs(kDrainFlows);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    net::FlowSpec& s = specs[i];
    s.src_host = hosts[i % n];
    s.dst_host = hosts[partner[i % n]];
    s.src_rail = static_cast<int>(i % static_cast<std::size_t>(rails));
    s.dst_rail = s.src_rail;
    s.size = 4 * kMiB;
    s.tag = i;
  }
  return specs;
}

constexpr double kChurnRate = 200000.0;  // flows per simulated second

/// Open-loop Poisson arrivals between random distinct hosts; 70% 256 KiB,
/// 20% 4 MiB, 10% 64 MiB; a quarter change rail.
std::vector<net::FlowSpec> churn_specs(const topo::Fabric& fabric, std::uint64_t seed) {
  const auto hosts = fabric.topo().hosts();
  const int rails = fabric.params().rails;
  core::Rng rng(seed);
  std::vector<net::FlowSpec> specs;
  specs.reserve(kDrainFlows);
  core::Seconds t = 0.0;
  for (int i = 0; i < kDrainFlows; ++i) {
    t += rng.exponential(kChurnRate);
    net::FlowSpec s;
    const std::uint64_t src = rng.uniform_int(hosts.size());
    const std::uint64_t dst = (src + 1 + rng.uniform_int(hosts.size() - 1)) % hosts.size();
    s.src_host = hosts[src];
    s.dst_host = hosts[dst];
    s.src_rail = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(rails)));
    s.dst_rail = s.src_rail;
    if (rng.chance(0.25)) {
      s.dst_rail = static_cast<int>(
          (static_cast<std::uint64_t>(s.src_rail) + 1 + rng.uniform_int(rails - 1)) % rails);
    }
    const double u = rng.uniform();
    s.size = u < 0.7 ? 256 * 1024 : (u < 0.9 ? 4 * kMiB : 64 * kMiB);
    s.start = t;
    s.tag = static_cast<std::uint64_t>(i);
    specs.push_back(s);
  }
  return specs;
}

using SpecGen = std::vector<net::FlowSpec> (*)(const topo::Fabric&, std::uint64_t);

void add_solve_histogram(const obs::Metrics& m, std::map<std::string, double>& layer) {
  const obs::Histogram* h = m.find_histogram("fluidsim.solve_us");
  if (h == nullptr) return;
  layer["net.shard_solver.solve_s_sum"] = h->sum() * 1e-6;
  layer["net.shard_solver.solve_samples"] = static_cast<double>(h->count());
  layer["net.shard_solver.solve_us_p50"] = h->percentile(50);
  layer["net.shard_solver.solve_us_tail_pct"] = tail_percentile(h->count());
  layer["net.shard_solver.solve_us_tail"] = h->percentile(tail_percentile(h->count()));
  layer["net.shard_solver.full_solves"] = static_cast<double>(m.counter("fluidsim.solves.full"));
  layer["net.fluid_sim.island_solves"] = static_cast<double>(m.counter("fluidsim.solves.island"));
  layer["net.fluid_sim.flows_completed"] =
      static_cast<double>(m.counter("fluidsim.flows.completed"));
}

RepResult drain_rep(const RepOptions& opt, SpecGen gen, int lanes) {
  SpanLog* log = opt.spans;
  const bool traced = log != nullptr;
  RepResult r;
  obs::Metrics metrics;
  std::unique_ptr<topo::Fabric> fabric;
  std::unique_ptr<net::FluidSim> sim;
  std::vector<net::FlowSpec> specs;
  std::vector<net::FlowId> ids;
  double fabric_s = 0.0, inject_s = 0.0, run_s = 0.0, heap0 = 0.0;
  std::uint64_t allocs = 0;

  const Clock::time_point t0 = Clock::now();
  {
    Scope setup(log, "setup", opt.rep);
    {
      Scope s(log, "topo.fabric_build", opt.rep);
      fabric = std::make_unique<topo::Fabric>(bench_params());
      fabric_s = s.stop();
    }
    {
      Scope s(log, "inputs", opt.rep);
      specs = gen(*fabric, opt.seed);
    }
    {
      Scope s(log, "net.fluid_sim.construct", opt.rep);
      net::FluidSimConfig cfg;
      cfg.solver_threads = lanes;
      cfg.shard_telemetry = traced;
      sim = std::make_unique<net::FluidSim>(*fabric, cfg);
      if (traced) sim->set_metrics(&metrics);
    }
  }
  if (traced) heap0 = heap_in_use();
  const Clock::time_point t1 = Clock::now();
  r.setup_s = seconds_between(t0, t1);
  if (opt.setup_only) return r;
  {
    Scope run(log, "run", opt.rep);
    {
      Scope s(log, "net.router.inject_batch", opt.rep);
      ids = sim->inject_batch(specs);
      inject_s = s.stop();
    }
    {
      Scope s(log, "net.fluid_sim.run", opt.rep);
      const std::uint64_t a0 = alloc_count();
      if (traced) set_alloc_counting(true);
      sim->run();
      set_alloc_counting(false);
      allocs = alloc_count() - a0;
      run_s = s.stop();
    }
  }
  r.run_s = seconds_between(t1, Clock::now());

  Scope checks(log, "checks", opt.rep);
  std::size_t admitted = 0, finished = 0;
  double path_bytes = 0.0;
  std::vector<double> fct;
  fct.reserve(ids.size());
  r.digest = kFnvOffset;
  for (net::FlowId id : ids) {
    const net::FlowState& f = sim->flow(id);
    r.digest = fnv1a(r.digest, &f.finish, sizeof f.finish);
    if (!f.admitted) continue;
    ++admitted;
    path_bytes += static_cast<double>(f.spec.size) * static_cast<double>(f.path.size());
    if (f.finish >= 0.0 && !f.aborted) {
      ++finished;
      fct.push_back(f.finish - f.spec.start);
    }
  }
  double forwarded = 0.0;
  const std::size_t links = fabric->topo().link_count();
  for (std::size_t l = 0; l < links; ++l) {
    forwarded += sim->link_stats(static_cast<topo::LinkId>(l)).bytes_forwarded;
  }
  const double n = static_cast<double>(specs.size());
  r.checks.expect(admitted == specs.size(),
                  fmt("%.0f of %.0f flows unroutable", n - static_cast<double>(admitted), n));
  r.checks.expect(finished == admitted,
                  fmt("%.0f admitted flows never finished", static_cast<double>(admitted - finished)));
  r.checks.expect(sim->idle() && sim->backlog() == 0,
                  fmt("sim not drained: backlog %.0f bytes", static_cast<double>(sim->backlog())));
  const double rel = std::abs(forwarded - path_bytes) / std::max(path_bytes, 1.0);
  r.checks.expect(rel <= 1e-8, fmt("link bytes %.6g vs size x hops %.6g", forwarded, path_bytes));

  double makespan = 0.0;
  for (net::FlowId id : ids) makespan = std::max(makespan, sim->flow(id).finish);
  r.sim["sim_makespan_s"] = makespan;
  r.sim["sim_fct_p50_s"] = quantile(fct, 50);
  r.sim["sim_fct_p99_s"] = quantile(fct, 99);

  if (traced) {
    auto& L = r.layer;
    L["topo.fabric_build_s"] = fabric_s;
    L["net.router.inject_s"] = inject_s;
    L["net.router.flows_admitted"] = static_cast<double>(admitted);
    L["net.router.flows_unroutable"] = n - static_cast<double>(admitted);
    add_solve_histogram(metrics, L);
    L["net.shard_solver.shards_solved"] =
        static_cast<double>(metrics.counter("fluidsim.shards.solved"));
    L["net.shard_solver.reconcile_passes"] =
        static_cast<double>(metrics.counter("fluidsim.reconcile.passes"));
    if (const obs::Histogram* h = metrics.find_histogram("fluidsim.shard_solve_us")) {
      L["net.shard_solver.shard_solve_s_sum"] = h->sum() * 1e-6;
    }
    L["net.fluid_sim.run_s"] = run_s;
    L["net.fluid_sim.self_s"] = run_s - L["net.shard_solver.solve_s_sum"];
    L["net.fluid_sim.allocs"] = static_cast<double>(allocs);
    L["net.fluid_sim.bytes_per_flow"] = (heap_in_use() - heap0) / n;
    L["core.thread_pool.lanes"] = lanes;
    L["share.net.router"] = inject_s / r.run_s;
    L["share.net.shard_solver"] = L["net.shard_solver.solve_s_sum"] / r.run_s;
    L["share.net.fluid_sim.self"] = L["net.fluid_sim.self_s"] / r.run_s;
  }
  return r;
}

/// Median full re-solve of the warm active set at `warm_until` with
/// unchanged membership: the cached-structure floor of a solve.
std::map<std::string, double> clean_resolve(const RepOptions& opt, SpecGen gen,
                                            int lanes, core::Seconds warm_until) {
  topo::Fabric fabric(bench_params());
  const std::vector<net::FlowSpec> specs = gen(fabric, opt.seed);
  net::FluidSimConfig cfg;
  cfg.solver_threads = lanes;
  net::FluidSim sim(fabric, cfg);
  sim.inject_batch(specs);
  sim.run(warm_until);
  sim.resolve_rates();
  std::vector<double> us;
  for (int k = 0; k < 15; ++k) {
    const Clock::time_point t = Clock::now();
    sim.resolve_rates();
    us.push_back(seconds_between(t, Clock::now()) * 1e6);
  }
  return {{"net.shard_solver.clean_resolve_us", quantile(us, 50)},
          {"net.shard_solver.clean_resolve_flows",
           static_cast<double>(sim.active_flows().size())}};
}

RepResult perm_rep(const RepOptions& opt) { return drain_rep(opt, perm_specs, opt.lanes); }
std::map<std::string, double> perm_once(const RepOptions& opt) {
  return clean_resolve(opt, perm_specs, opt.lanes, 0.0);
}

RepResult churn_rep(const RepOptions& opt) { return drain_rep(opt, churn_specs, 1); }
std::map<std::string, double> churn_once(const RepOptions& opt) {
  // Half-way through the arrival window the active set is at its largest.
  return clean_resolve(opt, churn_specs, 1, 0.5 * kDrainFlows / kChurnRate);
}

// ---- fleet campaign -------------------------------------------------------

struct CampaignInputs {
  std::vector<monitor::FleetJobSpec> jobs;
  std::vector<std::vector<monitor::FaultSpec>> local;  ///< Per job.
  std::vector<monitor::FleetFault> faults;
};

monitor::RecoveryConfig campaign_recovery() {
  monitor::RecoveryConfig rc;
  rc.enabled = true;
  rc.checkpoint_interval = 2;
  rc.max_restarts = 0;  // a dead host is terminal -> elastic shrink
  rc.detect_time = 0.05;
  rc.restart_time = 0.2;
  rc.backoff_base = 0.05;
  return rc;
}

/// 200 Poisson arrivals at 4 jobs/s of 8/16/32-host jobs, 20 iterations
/// each, WCMP gray routing; about one job in four carries a gray local
/// fault on a random pod-0 host uplink; six fleet faults strike pod 0 in
/// [2 s, 40 s].
CampaignInputs campaign_inputs(const topo::Fabric& fabric, std::uint64_t seed) {
  CampaignInputs in;
  monitor::ArrivalProcessConfig ap;
  ap.jobs = 200;
  ap.arrival_rate = 4.0;
  ap.sizes = {8, 16, 32};
  ap.size_weights = {0.5, 0.3, 0.2};
  ap.iterations = 20;
  ap.comm_bytes = 512 * kMiB;  // ~20 ms of ring traffic beside 50 ms of compute
  ap.recovery = campaign_recovery();
  ap.seed = seed;
  in.jobs = monitor::generate_arrivals(ap);

  const topo::Topology& topo = fabric.topo();
  const auto hosts = topo.hosts();
  const int rails = fabric.params().rails;
  core::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x51);
  // Fault targets are drawn from pod 0: rail-aligned placement is
  // first-fit from host 0, so that is where the tenants run.
  const std::size_t pod0 = hosts.size() / static_cast<std::size_t>(fabric.params().pods);
  auto random_host = [&] { return hosts[rng.uniform_int(pod0)]; };
  auto random_uplink = [&] {
    return topo.host_uplink(random_host(),
                            static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(rails))), 0);
  };

  in.local.resize(in.jobs.size());
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    in.jobs[j].job.gray.mode = monitor::GrayRoutingConfig::Mode::Wcmp;
    if (!rng.chance(0.25)) continue;
    monitor::FaultSpec f;
    f.manifestation = monitor::Manifestation::FailSlow;
    if (rng.chance(0.5)) {
      f.gray = monitor::GrayKind::FlappingLink;
      f.cause = monitor::RootCause::LinkFlap;
      f.degrade_factor = 0.2;
    } else {
      f.gray = monitor::GrayKind::PartialDegrade;
      f.cause = monitor::RootCause::OpticalFiber;
      f.degrade_factor = 0.5;
    }
    f.at_iteration = 2 + static_cast<int>(rng.uniform_int(8));
    f.repair_iterations = 6;
    f.target_link = random_uplink();
    in.local[j].push_back(f);
  }

  for (int k = 0; k < 2; ++k) {
    monitor::FleetFault host_death;
    host_death.at_time = rng.uniform(2.0, 40.0);
    host_death.cause = monitor::RootCause::GpuHardware;
    host_death.manifestation = monitor::Manifestation::FailStop;
    host_death.target_host = static_cast<int>(rng.uniform_int(pod0));
    in.faults.push_back(host_death);

    monitor::FleetFault optic;
    optic.at_time = rng.uniform(2.0, 40.0);
    optic.cause = monitor::RootCause::OpticalFiber;
    optic.manifestation = monitor::Manifestation::FailSlow;
    optic.target_link = random_uplink();
    optic.degrade_factor = 0.2;
    optic.heal_after = 2.0;
    in.faults.push_back(optic);

    monitor::FleetFault tor_death;
    tor_death.at_time = rng.uniform(2.0, 40.0);
    tor_death.cause = monitor::RootCause::SwitchBug;
    tor_death.manifestation = monitor::Manifestation::FailStop;
    tor_death.target_link = random_uplink();
    tor_death.switch_scope = true;
    tor_death.heal_after = 3.0;
    in.faults.push_back(tor_death);
  }
  return in;
}

RepResult campaign_rep(const RepOptions& opt) {
  SpanLog* log = opt.spans;
  const bool traced = log != nullptr;
  RepResult r;
  obs::Metrics metrics;
  std::unique_ptr<topo::Fabric> fabric;
  CampaignInputs in;
  // The analyzer must outlive the fleet: engines detach at retirement.
  std::unique_ptr<monitor::StreamAnalyzer> stream;
  std::unique_ptr<monitor::FleetRuntime> fleet;
  monitor::FleetOutcome out;
  double fabric_s = 0.0, submit_s = 0.0, fleet_run_s = 0.0, finalize_s = 0.0;

  const Clock::time_point t0 = Clock::now();
  {
    Scope setup(log, "setup", opt.rep);
    {
      Scope s(log, "topo.fabric_build", opt.rep);
      fabric = std::make_unique<topo::Fabric>(bench_params());
      fabric_s = s.stop();
    }
    {
      Scope s(log, "inputs", opt.rep);
      in = campaign_inputs(*fabric, opt.seed);
    }
    {
      Scope s(log, "monitor.fleet_runtime.construct", opt.rep);
      monitor::StreamAnalyzerConfig sc;
      sc.gray.enabled = true;
      stream = std::make_unique<monitor::StreamAnalyzer>(fabric->topo(), sc);
      monitor::FleetConfig fc;
      fc.placement = parallel::HostPolicy::RailAligned;
      fc.elastic.cordon_heal_time = 0.15;
      fc.seed = opt.seed;
      fleet = std::make_unique<monitor::FleetRuntime>(*fabric, fc);
      fleet->set_stream_analyzer(stream.get());
      if (traced) fleet->set_metrics(&metrics);
    }
  }
  const Clock::time_point t1 = Clock::now();
  r.setup_s = seconds_between(t0, t1);
  if (opt.setup_only) return r;
  {
    Scope run(log, "run", opt.rep);
    {
      Scope s(log, "monitor.fleet_runtime.submit", opt.rep);
      for (std::size_t j = 0; j < in.jobs.size(); ++j) fleet->submit(in.jobs[j], in.local[j]);
      for (const monitor::FleetFault& f : in.faults) fleet->inject(f);
      submit_s = s.stop();
    }
    {
      Scope s(log, "monitor.fleet_runtime.run", opt.rep);
      out = fleet->run();
      fleet_run_s = s.stop();
    }
  }
  r.run_s = seconds_between(t1, Clock::now());

  std::uint64_t revisions = 0;
  if (traced) {
    Scope s(log, "monitor.stream_analyzer.finalize", opt.rep);
    for (const monitor::FleetJobLedger& jl : out.jobs) {
      stream->diagnosis(jl.job_id);
      revisions += stream->revisions(jl.job_id);
    }
    stream->publish(metrics);
    finalize_s = s.stop();
  }

  Scope checks(log, "checks", opt.rep);
  const std::string doc = out.to_json().dump();
  r.digest = fnv1a(kFnvOffset, doc.data(), doc.size());
  double useful = 0.0, wasted = 0.0;
  std::vector<double> queue;
  for (const monitor::FleetJobLedger& jl : out.jobs) {
    r.checks.expect(jl.finish >= 0.0, fmt("job %.0f never left the fleet", jl.job_id));
    for (std::size_t k = 0; k < jl.segments.size(); ++k) {
      const monitor::RunOutcome& o = jl.segments[k].outcome;
      const double gap = o.useful_time + o.wasted_time + o.downtime - o.makespan;
      r.checks.expect(std::abs(gap) <= 1e-6 * std::max(1.0, o.makespan),
                      "job " + std::to_string(jl.job_id) + " segment " +
                          std::to_string(k) + fmt(": useful+wasted+downtime-makespan = %.6g s", gap));
    }
    useful += jl.merged.useful_time;
    wasted += jl.merged.wasted_time;
    if (jl.first_start >= 0.0) queue.push_back(jl.queue_delay);
  }
  r.sim["sim_makespan_s"] = out.makespan;
  r.sim["sim_goodput"] = out.fleet_goodput;
  r.sim["sim_jobs_per_hour"] = out.jobs_per_hour;
  r.sim["sim_queue_p50_s"] = quantile(queue, 50);
  r.sim["sim_queue_p95_s"] = quantile(queue, tail_percentile(queue.size()));

  if (traced) {
    auto& L = r.layer;
    L["topo.fabric_build_s"] = fabric_s;
    add_solve_histogram(metrics, L);
    const double solve_s = L["net.shard_solver.solve_s_sum"];
    const double self_s = fleet_run_s - solve_s;
    const double committed = static_cast<double>(metrics.counter("runtime.iterations.committed"));
    L["core.thread_pool.lanes"] = 1;
    L["monitor.fleet_runtime.submit_s"] = submit_s;
    L["monitor.fleet_runtime.run_s"] = fleet_run_s;
    L["monitor.fleet_runtime.self_s"] = self_s;
    L["monitor.fleet_runtime.admissions"] = static_cast<double>(metrics.counter("fleet.admissions"));
    L["monitor.fleet_runtime.preemptions"] = static_cast<double>(metrics.counter("fleet.preemptions"));
    L["monitor.fleet_runtime.shrinks"] = static_cast<double>(metrics.counter("fleet.shrinks"));
    L["monitor.fleet_runtime.regrows"] = static_cast<double>(metrics.counter("fleet.regrows"));
    L["monitor.job_engine.iterations_committed"] = committed;
    L["monitor.job_engine.host_us_per_iteration"] = committed > 0 ? self_s * 1e6 / committed : 0.0;
    L["monitor.job_engine.mitigations"] = static_cast<double>(metrics.counter("runtime.mitigations"));
    L["monitor.job_engine.gray_derates"] = static_cast<double>(metrics.counter("runtime.gray.derates"));
    L["monitor.job_engine.inflight_reroutes"] =
        static_cast<double>(metrics.counter("runtime.inflight_reroutes"));
    L["monitor.job_engine.wasted_share"] = useful + wasted > 0 ? wasted / (useful + wasted) : 0.0;
    L["monitor.stream_analyzer.records_ingested"] = static_cast<double>(stream->records_ingested());
    L["monitor.stream_analyzer.diag_revisions"] = static_cast<double>(revisions);
    L["monitor.stream_analyzer.gray_alarms"] = static_cast<double>(stream->alarms_raised());
    L["monitor.stream_analyzer.footprint_bytes"] = static_cast<double>(stream->footprint_bytes());
    L["monitor.stream_analyzer.finalize_s"] = finalize_s;
    L["share.monitor.fleet_runtime.submit"] = submit_s / r.run_s;
    L["share.net.shard_solver"] = solve_s / r.run_s;
    L["share.monitor.fleet_runtime.self"] = self_s / r.run_s;
  }
  return r;
}

const char* kNoFleet = "no fleet, JobEngine or StreamAnalyzer runs on this workload";

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"perm-drain", true, 4, perm_rep, perm_once,
       {{"monitor.*", kNoFleet}}},
      {"churn-drain", false, 2, churn_rep, churn_once,
       {{"monitor.*", kNoFleet}}},
      {"fleet-campaign", false, 3, campaign_rep, nullptr,
       {{"net.router.*",
         "JobEngines inject their flows inside FleetRuntime::run(); the benchmark "
         "cannot time or count routing apart from it"},
        {"net.shard_solver.shards_solved",
         "FleetRuntime builds its FluidSim internally; shard_telemetry cannot be "
         "switched on through its public API"},
        {"net.shard_solver.reconcile_passes", "as shards_solved"},
        {"net.shard_solver.shard_solve_s_sum", "as shards_solved"},
        {"net.shard_solver.clean_resolve_us",
         "no standing flow set: every flow belongs to a live iteration"},
        {"net.shard_solver.clean_resolve_flows", "as clean_resolve_us"},
        {"net.fluid_sim.run_s",
         "FluidSim::run() is driven by JobEngines inside FleetRuntime::run(); "
         "see monitor.fleet_runtime.run_s"},
        {"net.fluid_sim.self_s", "as net.fluid_sim.run_s"},
        {"net.fluid_sim.allocs", "as net.fluid_sim.run_s"},
        {"net.fluid_sim.bytes_per_flow",
         "flows are recycled per iteration; no drained flow set to divide by"}}},
  };
  return all;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : workloads()) names.emplace_back(w.name);
  return names;
}

}  // namespace perfbench
