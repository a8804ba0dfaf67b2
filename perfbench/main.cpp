// perfbench: host wall clock of real work through the library's public
// API, with every output checked. Normally driven by run.py, which builds
// this binary, adds the source revision to the run header and writes the
// result file.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// Repeats the workload until S seconds have passed (at least three times)
// and prints one JSON document: the run header, the end-to-end metrics
// (medians over the untraced repetitions of the per-input-set mean), and
// with --trace 1 the per-layer metrics of traced repetitions interleaved
// with untraced ones.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace {

using namespace perfbench;

constexpr int kMinReps = 3;
constexpr int kMaxReps = 10000;
constexpr int kSetupSamples = 2;  ///< Set-up-only samples per input set.

struct Unit {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, in report order.
const Unit kPerLayer[] = {
    {"net.router.inject_s", "s"},
    {"net.router.flows_admitted", "count"},
    {"net.router.flows_unroutable", "count"},
    {"net.shard_solver.full_solves", "count"},
    {"net.shard_solver.solve_s_sum", "s"},
    {"net.shard_solver.solve_samples", "count"},
    {"net.shard_solver.solve_us_p50", "us"},
    {"net.shard_solver.solve_us_tail", "us"},
    {"net.shard_solver.solve_us_tail_pct", "%"},
    {"net.shard_solver.shards_solved", "count"},
    {"net.shard_solver.reconcile_passes", "count"},
    {"net.shard_solver.shard_solve_s_sum", "s"},
    {"net.shard_solver.clean_resolve_us", "us"},
    {"net.shard_solver.clean_resolve_flows", "count"},
    {"net.fluid_sim.run_s", "s"},
    {"net.fluid_sim.self_s", "s"},
    {"net.fluid_sim.island_solves", "count"},
    {"net.fluid_sim.flows_completed", "count"},
    {"net.fluid_sim.allocs", "count"},
    {"net.fluid_sim.bytes_per_flow", "B"},
    {"core.thread_pool.lanes", "count"},
    {"core.calib.lane_speedup", "ratio"},
    {"monitor.fleet_runtime.submit_s", "s"},
    {"monitor.fleet_runtime.run_s", "s"},
    {"monitor.fleet_runtime.self_s", "s"},
    {"monitor.fleet_runtime.admissions", "count"},
    {"monitor.fleet_runtime.preemptions", "count"},
    {"monitor.fleet_runtime.shrinks", "count"},
    {"monitor.fleet_runtime.regrows", "count"},
    {"monitor.job_engine.iterations_committed", "count"},
    {"monitor.job_engine.host_us_per_iteration", "us"},
    {"monitor.job_engine.mitigations", "count"},
    {"monitor.job_engine.gray_derates", "count"},
    {"monitor.job_engine.inflight_reroutes", "count"},
    {"monitor.job_engine.wasted_share", "ratio"},
    {"monitor.stream_analyzer.records_ingested", "count"},
    {"monitor.stream_analyzer.diag_revisions", "count"},
    {"monitor.stream_analyzer.gray_alarms", "count"},
    {"monitor.stream_analyzer.footprint_bytes", "B"},
    {"monitor.stream_analyzer.finalize_s", "s"},
    {"topo.fabric_build_s", "s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH]\n",
               why);
  std::exit(2);
}

volatile std::uint64_t g_spin_sink = 0;

/// A fixed integer kernel, split into `threads` equal parts on raw
/// std::threads; returns the host seconds it took.
double spin(int threads, std::uint64_t total_iters) {
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads) * 8, 0);
  const Clock::time_point t0 = Clock::now();
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
  const double s = seconds_between(t0, Clock::now());
  for (std::uint64_t v : sink) g_spin_sink = g_spin_sink ^ v;  // keeps the kernel live
  return s;
}

/// Raw-thread calibration: the same work on 1 and on `lanes` threads,
/// median of three trials each. Lets a flat lane sweep be blamed on the
/// host or on the code.
core::Json calibrate(int lanes) {
  constexpr std::uint64_t kIters = 40'000'000;
  std::vector<double> one, many;
  for (int k = 0; k < 3; ++k) {
    one.push_back(spin(1, kIters));
    many.push_back(spin(lanes, kIters));
  }
  core::Json c = core::Json::object();
  c["lanes"] = lanes;
  c["one_lane_ms"] = quantile(one, 50) * 1e3;
  c["all_lanes_ms"] = quantile(many, 50) * 1e3;
  c["lane_speedup"] = quantile(one, 50) / quantile(many, 50);
  return c;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

core::Json metric(double value, const char* unit) {
  core::Json m = core::Json::object();
  m["value"] = value;
  m["unit"] = unit;
  return m;
}

/// Median with the quartiles and sample count beside it.
core::Json timing(const std::vector<double>& v, const char* unit) {
  core::Json m = metric(quantile(v, 50), unit);
  m["p25"] = quantile(v, 25);
  m["p75"] = quantile(v, 75);
  m["samples"] = static_cast<double>(v.size());
  return m;
}

const std::string* absent_reason(const Workload& w, const std::string& name) {
  for (const auto& [pattern, why] : w.absent) {
    if (pattern == name) return &why;
    if (pattern.size() > 1 && pattern.back() == '*' &&
        name.compare(0, pattern.size() - 1, pattern, 0, pattern.size() - 1) == 0) {
      return &why;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_file;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (a + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* val = argv[++a];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoll(val, &end, 10);
      if (*end != '\0' || seed < 0) usage("--seed takes a non-negative integer");
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      trace = val[0] - '0';
    } else if (arg == "--trace-file") {
      trace_file = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) {
    std::string known;
    for (const std::string& n : workload_names()) known += " " + n;
    usage(("unknown workload '" + workload + "'; one of:" + known).c_str());
  }
  if (seed < 0 || seconds < 0 || trace < 0) usage("--seed, --seconds and --trace are required");

  // A fixed mmap threshold turns off glibc's adaptive one, whose drift with
  // the allocation history moves peak RSS by tens of percent between
  // near-identical builds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  RepOptions opt;
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.lanes = std::min(4, nproc);

  core::Json header = core::Json::object();
  header["build_type"] = PERFBENCH_BUILD_TYPE;
  header["nproc"] = nproc;
  header["calibration"] = calibrate(opt.lanes);

  // One repetition runs each of the workload's input sets once; input set
  // k of run seed s is generated from seed s * K + k. Averaging K input
  // sets keeps one seed's structure (hash collisions, arrival pattern)
  // from swaying the run's host time. Untraced and traced repetitions
  // alternate in a traced run, so both see the same host conditions and
  // their difference is the tracing overhead.
  const int inputs = w->inputs;
  SpanLog spans;
  std::vector<RepResult> plain, traced;  ///< Means over the input sets.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(inputs), 0);
  Checks checks;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int rep = 0; rep < kMaxReps; ++rep) {
    const bool traced_rep = trace == 1 && rep % 2 == 1;
    opt.rep = rep;
    RepResult mean;
    try {
      for (int k = 0; k < inputs; ++k) {
        opt.seed = static_cast<std::uint64_t>(seed) * static_cast<std::uint64_t>(inputs) +
                   static_cast<std::uint64_t>(k);
        // Set-up is short beside the timed region; extra set-up-only
        // samples steady its median.
        opt.spans = nullptr;
        opt.setup_only = true;
        for (int j = 0; j < kSetupSamples; ++j) setup_s.push_back(w->rep(opt).setup_s);
        opt.setup_only = false;
        opt.spans = traced_rep ? &spans : nullptr;
        const RepResult r = w->rep(opt);
        std::uint64_t& want = digests[static_cast<std::size_t>(k)];
        if (rep == 0) want = r.digest;
        checks.expect(r.digest == want, "repetition " + std::to_string(rep) + ", input set " +
                                            std::to_string(k) + " differs from repetition 0");
        checks.merge(r.checks);
        if (!traced_rep) setup_s.push_back(r.setup_s);
        mean.run_s += r.run_s / inputs;
        for (const auto& [name, value] : r.sim) mean.sim[name] += value / inputs;
        for (const auto& [name, value] : r.layer) mean.layer[name] += value / inputs;
      }
    } catch (const std::exception& e) {
      checks.expect(false, "repetition " + std::to_string(rep) + " threw: " + e.what());
      break;
    }
    (traced_rep ? traced : plain).push_back(std::move(mean));
    const bool enough = plain.size() >= kMinReps && (trace == 0 || traced.size() >= kMinReps);
    if (enough && Clock::now() >= deadline) break;
  }
  header["solver_lanes"] = w->all_lanes ? opt.lanes : 1;
  header["input_sets"] = inputs;

  core::Json doc = core::Json::object();
  doc["workload"] = workload;
  doc["seed"] = static_cast<double>(seed);
  doc["trace"] = trace;
  doc["seconds"] = seconds;
  doc["header"] = header;
  doc["repetitions"] = static_cast<double>(plain.size() + traced.size());
  core::Json jd = core::Json::array();
  for (std::uint64_t d : digests) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(d));
    jd.push_back(std::string(hex));
  }
  doc["digests"] = jd;

  std::vector<double> run_s;
  for (const RepResult& r : plain) run_s.push_back(r.run_s);
  core::Json e2e = core::Json::object();
  e2e["run_s"] = timing(run_s, "s");
  e2e["setup_s"] = timing(setup_s, "s");
  e2e["peak_rss_mb"] = metric(peak_rss_mb(), "MiB");
  e2e["error_rate"] = metric(
      static_cast<double>(checks.failed) / static_cast<double>(std::max<std::uint64_t>(1, checks.attempted)),
      "ratio");
  if (!plain.empty()) {
    for (const auto& [name, value] : plain.front().sim) {
      e2e[name] = metric(value, name == "sim_goodput" ? "ratio"
                                : name == "sim_jobs_per_hour" ? "jobs/h"
                                                              : "s");
    }
  }
  doc["end_to_end"] = e2e;

  if (trace == 1 && !traced.empty()) {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_run_s;
    for (const RepResult& r : traced) {
      traced_run_s.push_back(r.run_s);
      for (const auto& [name, value] : r.layer) samples[name].push_back(value);
    }
    std::map<std::string, double> values;
    for (const auto& [name, v] : samples) values[name] = quantile(v, 50);
    if (w->once != nullptr) {
      opt.seed = static_cast<std::uint64_t>(seed) * static_cast<std::uint64_t>(inputs);
      opt.spans = nullptr;
      for (const auto& [name, value] : w->once(opt)) values[name] = value;
    }
    values["core.calib.lane_speedup"] = header["calibration"]["lane_speedup"].as_number();
    values["trace.overhead_s"] = quantile(traced_run_s, 50) - quantile(run_s, 50);

    core::Json layer = core::Json::object();
    core::Json absent = core::Json::object();
    for (const Unit& u : kPerLayer) {
      const std::string* why = absent_reason(*w, u.name);
      auto it = values.find(u.name);
      if (why != nullptr || it == values.end()) {
        absent[u.name] = why ? *why : std::string("not measured");
      }
      layer[u.name] = metric(why == nullptr && it != values.end() ? it->second : 0.0, u.unit);
    }
    core::Json shares = core::Json::object();
    for (const auto& [name, value] : values) {
      if (name.rfind("share.", 0) == 0) shares[name.substr(6)] = value;
    }
    doc["per_layer"] = layer;
    doc["absent"] = absent;
    doc["shares_of_run_s"] = shares;
    doc["traced_run_s"] = timing(traced_run_s, "s");

    if (!trace_file.empty()) {
      std::ofstream out(trace_file);
      out << spans.to_chrome_trace().dump() << '\n';
      if (!out.good()) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
        return 1;
      }
    }
  }

  core::Json jc = core::Json::object();
  jc["attempted"] = static_cast<double>(checks.attempted);
  jc["failed"] = static_cast<double>(checks.failed);
  core::Json failures = core::Json::array();
  for (const std::string& f : checks.failures) failures.push_back(f);
  jc["failures"] = failures;
  doc["checks"] = jc;

  std::printf("%s\n", doc.dump().c_str());
  return 0;
}
