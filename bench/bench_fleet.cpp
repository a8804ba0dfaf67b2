// Fleet-scheduler throughput benchmark: a stream of mixed-size tenants
// arriving at increasing rates on one shared fabric, with a host death
// and a ToR death playing mid-campaign so the mitigation, shrink, and
// preemption paths stay hot. Per arrival-rate point it records the
// simulated fleet metrics (jobs/hour, p50/p99 queueing delay, fleet
// goodput, completion rate) and the wall-clock cost of the scheduler
// itself. Writes BENCH_fleet.json (path = argv[1], default
// ./BENCH_fleet.json) so the repo keeps a scheduling-throughput
// trajectory next to BENCH_fluid.json. Exit status mirrors the
// acceptance checks: every point completes >= 80% of its jobs and the
// per-job wall clock of the whole run (scheduler, engines and simulator)
// stays under 2 ms. A Release build measured 0.20-0.26 ms per job on a
// 4-vCPU x86-64 VM; the bound leaves headroom for slower CI hosts while
// still catching a per-job cost that grows by an order of magnitude.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "monitor/fleet_runtime.h"
#include "topo/fabric.h"

namespace {

using namespace astral;
using Clock = std::chrono::steady_clock;

constexpr double kMaxWallPerJobMs = 2.0;  ///< Acceptance bound, see above.

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

topo::FabricParams bench_params() {
  topo::FabricParams p;
  p.rails = 2;
  p.hosts_per_block = 8;
  p.blocks_per_pod = 2;
  p.pods = 2;  // 32 hosts
  return p;
}

monitor::RecoveryConfig bench_recovery() {
  monitor::RecoveryConfig rc;
  rc.enabled = true;
  rc.checkpoint_interval = 2;
  rc.max_restarts = 0;  // dead host -> elastic shrink path
  rc.detect_time = 0.05;
  rc.restart_time = 0.2;
  rc.backoff_base = 0.05;
  return rc;
}

struct Point {
  double arrival_rate = 0.0;
  int jobs = 0;
  double jobs_per_hour = 0.0;
  double queue_p50_s = 0.0;
  double queue_p99_s = 0.0;
  double fleet_goodput = 0.0;
  double completion_rate = 0.0;
  double makespan_s = 0.0;
  int preemptions = 0;
  int shrinks = 0;
  double wall_ms = 0.0;
};

Point measure(double arrival_rate, int jobs, std::uint64_t seed) {
  topo::Fabric fabric(bench_params());
  monitor::FleetConfig fc;
  fc.placement = parallel::HostPolicy::RailAligned;
  fc.elastic.cordon_heal_time = 0.15;
  fc.seed = seed;
  monitor::FleetRuntime fleet(fabric, fc);

  monitor::ArrivalProcessConfig ap;
  ap.jobs = jobs;
  ap.arrival_rate = arrival_rate;
  ap.sizes = {4, 8, 12};
  ap.size_weights = {0.5, 0.3, 0.2};
  ap.priorities = {0, 0, 0, 1};
  ap.iterations = 10;
  ap.comm_bytes = 8ull * 1024 * 1024;
  ap.recovery = bench_recovery();
  ap.seed = seed;
  for (const monitor::FleetJobSpec& spec : monitor::generate_arrivals(ap)) {
    fleet.submit(spec);
  }

  monitor::FleetFault host_death;
  host_death.at_time = 0.25;
  host_death.cause = monitor::RootCause::GpuHardware;
  host_death.manifestation = monitor::Manifestation::FailStop;
  host_death.target_host = 1;
  fleet.inject(host_death);

  monitor::FleetFault tor_death;
  tor_death.at_time = 1.0;
  tor_death.cause = monitor::RootCause::SwitchBug;
  tor_death.manifestation = monitor::Manifestation::FailStop;
  tor_death.target_link = fabric.topo().out_links(fabric.topo().hosts()[0])[0];
  tor_death.switch_scope = true;
  tor_death.heal_after = 1.5;
  fleet.inject(tor_death);

  auto t0 = Clock::now();
  monitor::FleetOutcome out = fleet.run();
  Point pt;
  pt.wall_ms = ms_since(t0);
  pt.arrival_rate = arrival_rate;
  pt.jobs = jobs;
  pt.jobs_per_hour = out.jobs_per_hour;
  pt.queue_p50_s = out.queue_delay_p50;
  pt.queue_p99_s = out.queue_delay_p99;
  pt.fleet_goodput = out.fleet_goodput;
  pt.completion_rate = out.completion_rate;
  pt.makespan_s = out.makespan;
  for (const auto& jl : out.jobs) {
    pt.preemptions += jl.preemptions;
    pt.shrinks += jl.shrinks;
  }
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fleet.json";
  if (argc > 1) out_path = argv[1];

  const double rates[] = {2.0, 8.0, 32.0};
  const int jobs = 40;
  std::vector<Point> points;
  for (double rate : rates) {
    points.push_back(measure(rate, jobs, /*seed=*/1));
    const Point& p = points.back();
    std::printf(
        "rate=%5.1f/s  jobs/h=%8.0f  q_p50=%6.2fs  q_p99=%6.2fs  "
        "goodput=%5.1f%%  done=%5.1f%%  preempt=%d  shrink=%d  wall=%7.2fms\n",
        p.arrival_rate, p.jobs_per_hour, p.queue_p50_s, p.queue_p99_s,
        p.fleet_goodput * 100.0, p.completion_rate * 100.0, p.preemptions,
        p.shrinks, p.wall_ms);
  }

  double min_completion = 1.0;
  double max_wall_per_job_ms = 0.0;
  for (const Point& p : points) {
    if (p.completion_rate < min_completion) min_completion = p.completion_rate;
    double per_job = p.wall_ms / p.jobs;
    if (per_job > max_wall_per_job_ms) max_wall_per_job_ms = per_job;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fleet_scheduler\",\n");
  std::fprintf(f,
               "  \"workload\": \"40 mixed-size jobs (4/8/12 hosts, 25%% "
               "high-priority) per point on a 32-host fabric, GPU death + "
               "ToR death mid-campaign, rail-aligned placement\",\n");
  std::fprintf(f, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"arrival_rate\": %.1f, \"jobs\": %d, "
                 "\"jobs_per_hour\": %.1f, \"queue_p50_s\": %.4f, "
                 "\"queue_p99_s\": %.4f, \"fleet_goodput\": %.4f, "
                 "\"completion_rate\": %.4f, \"makespan_s\": %.4f, "
                 "\"preemptions\": %d, \"shrinks\": %d, "
                 "\"wall_ms\": %.2f}%s\n",
                 p.arrival_rate, p.jobs, p.jobs_per_hour, p.queue_p50_s,
                 p.queue_p99_s, p.fleet_goodput, p.completion_rate,
                 p.makespan_s, p.preemptions, p.shrinks, p.wall_ms,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"criteria\": {\n");
  std::fprintf(f, "    \"min_completion_rate\": %.4f,\n", min_completion);
  std::fprintf(f, "    \"min_completion_rate_required\": 0.80,\n");
  std::fprintf(f, "    \"max_wall_per_job_ms\": %.3f,\n", max_wall_per_job_ms);
  std::fprintf(f, "    \"max_wall_per_job_ms_required\": %.1f\n", kMaxWallPerJobMs);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (min completion %.0f%%, max wall/job %.2fms)\n",
              out_path.c_str(), min_completion * 100.0, max_wall_per_job_ms);

  const bool ok = min_completion >= 0.80 && max_wall_per_job_ms <= kMaxWallPerJobMs;
  return ok ? 0 : 2;
}
