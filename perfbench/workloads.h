// The benchmark's three workloads on the 1024-GPU bench fabric. Each
// repetition builds its own fabric and inputs from the seed, runs the
// timed region through the library's public API and checks the outputs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Output checks of one repetition; they feed error_rate.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< The first few failure messages.

  void expect(bool ok, const std::string& what);
  void merge(const Checks& other);
};

/// What one repetition measured.
struct RepResult {
  double setup_s = 0.0;  ///< Fabric build, input generation, construction.
  double run_s = 0.0;    ///< The timed region.
  /// FNV-1a over per-flow finish times (drains) or the FleetOutcome JSON
  /// (campaign): equal digests mean bit-identical simulated results.
  std::uint64_t digest = 0;
  std::map<std::string, double> sim;    ///< sim_* metrics, deterministic.
  std::map<std::string, double> layer;  ///< Per-layer values; traced only.
  Checks checks;
};

struct RepOptions {
  std::uint64_t seed = 1;
  int lanes = 1;  ///< Solver lanes for workloads that use more than one.
  int rep = 0;
  SpanLog* spans = nullptr;  ///< Non-null: a traced repetition.
  bool setup_only = false;   ///< Stop after set-up; only setup_s is valid.
};

struct Workload {
  const char* name;
  bool all_lanes;  ///< Solver on RepOptions::lanes; otherwise on one.
  int inputs;      ///< Input sets per repetition (see main.cpp).
  RepResult (*rep)(const RepOptions& opt);
  /// Per-layer values measured once per traced run, apart from the
  /// repetitions (e.g. the clean re-solve); may be null.
  std::map<std::string, double> (*once)(const RepOptions& opt);
  /// Per-layer metrics this workload does not exercise, with the reason.
  std::map<std::string, std::string> absent;
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Linear-interpolated percentile `p` in [0, 100] (0 for no samples).
double quantile(std::vector<double> v, double p);
/// The highest percentile with at least ten samples beyond it (50 when
/// there are too few samples for that).
double tail_percentile(std::size_t samples);

/// operator-new calls counted while counting is on (process-wide).
void set_alloc_counting(bool on);
std::uint64_t alloc_count();

}  // namespace perfbench
