// Golden lock on the topology-shootout ranking table: the deterministic
// default-config shootout must reproduce the checked-in fixture byte for
// byte. Any change to the zoo builders, the ECMP controller, the fluid
// solver, the cost model, or table formatting trips this before it can
// silently reorder the published comparison.
//
// Intentional changes regenerate the fixture with one command:
//
//   GOLDEN_REGEN=1 ./build/tests/topo_shootout_golden_test
//
// then commit the updated file under tests/fixtures/ (see EXPERIMENTS.md,
// "Topology shootout").
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "zoo/shootout.h"

namespace astral::zoo {
namespace {

// Injected by tests/CMakeLists.txt; points at the source-tree fixtures.
#ifndef GOLDEN_FIXTURE_DIR
#error "GOLDEN_FIXTURE_DIR must be defined"
#endif

const char* kTablePath = GOLDEN_FIXTURE_DIR "/topology_shootout.table.txt";

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool regen_requested() {
  const char* env = std::getenv("GOLDEN_REGEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(ShootoutGolden, RankedTableMatchesCheckedInFixture) {
  auto report = run_shootout();
  ASSERT_TRUE(report.ok()) << report.gate_failures.front();

  if (regen_requested()) {
    std::ofstream(kTablePath) << report.table;
    GTEST_LOG_(INFO) << "regenerated " << kTablePath;
  }

  const std::string golden = read_file(kTablePath);
  ASSERT_FALSE(golden.empty())
      << "missing fixture " << kTablePath
      << " — regenerate with GOLDEN_REGEN=1 ./topo_shootout_golden_test";
  EXPECT_EQ(report.table, golden)
      << "the shootout no longer reproduces the golden ranking table; if "
         "the change is intentional, run GOLDEN_REGEN=1 "
         "./topo_shootout_golden_test and commit the updated fixture";
}

TEST(ShootoutGolden, ReportIsInternallyConsistent) {
  auto report = run_shootout();
  ASSERT_EQ(report.rows.size(), std::size(topo::kAllFabricStyles));
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const auto& r = report.rows[i];
    EXPECT_EQ(r.rank, static_cast<int>(i) + 1);
    if (i > 0) {
      EXPECT_LE(r.score, report.rows[i - 1].score);
    }
    EXPECT_LE(r.storm_load_after, r.storm_bound) << topo::to_string(r.style);
    EXPECT_GT(r.fabric_cost, 0.0);
  }
}

}  // namespace
}  // namespace astral::zoo
