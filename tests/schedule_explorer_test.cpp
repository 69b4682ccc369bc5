// Schedule explorer: the seed scan must find the minimal failing seed,
// the shrinker must reduce a planted bug to its minimal op prefix, and
// the real partition_churn scenario must come back clean for a handful
// of seeds (the CI smoke job scans hundreds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "globe/check/explorer.hpp"
#include "globe/check/scenarios.hpp"

namespace globe::check {
namespace {

// A planted bug with a crisp boundary: the scenario has 40 ops of
// workload and fails exactly when seed >= 7 and at least 23 ops ran.
ScenarioVerdict planted(std::uint64_t seed, std::uint64_t max_ops) {
  ScenarioVerdict v;
  v.ops_issued = std::min<std::uint64_t>(max_ops, 40);
  if (seed >= 7 && v.ops_issued >= 23) {
    v.ok = false;
    v.failure = "planted bug";
  }
  return v;
}

TEST(ScheduleExplorer, FindsMinimalSeedAndShrinksToMinimalOps) {
  const ScheduleExplorer ex("planted", planted, /*default_ops=*/40);
  ExploreOptions opts;
  opts.seeds = 20;
  opts.first_seed = 1;
  const ExploreResult res = ex.explore(opts);
  ASSERT_TRUE(res.found_failure);
  // Ascending scan: the first hit is the minimal seed by construction.
  EXPECT_EQ(res.failing_seed, 7u);
  // Binary-search shrink: ops=22 passes, ops=23 fails.
  EXPECT_EQ(res.minimal_ops, 23u);
  EXPECT_EQ(res.failure, "planted bug");
  EXPECT_NE(res.repro.find("--scenario=planted"), std::string::npos);
  EXPECT_NE(res.repro.find("--seed=7"), std::string::npos);
  EXPECT_NE(res.repro.find("--ops=23"), std::string::npos);
}

TEST(ScheduleExplorer, CleanScanReportsEveryRun) {
  const ScheduleExplorer ex("planted", planted, 40);
  ExploreOptions opts;
  opts.seeds = 6;  // seeds 1..6 all pass
  opts.first_seed = 1;
  const ExploreResult res = ex.explore(opts);
  EXPECT_FALSE(res.found_failure);
  EXPECT_EQ(res.runs, 6u);
}

TEST(ScheduleExplorer, WorkloadIndependentFailureShrinksToZeroOps) {
  const auto fault_only = [](std::uint64_t seed,
                             std::uint64_t max_ops) -> ScenarioVerdict {
    ScenarioVerdict v;
    v.ops_issued = max_ops;
    if (seed == 3) {
      v.ok = false;
      v.failure = "fault schedule alone breaks it";
    }
    return v;
  };
  const ScheduleExplorer ex("faulty", fault_only, 40);
  ExploreOptions opts;
  opts.seeds = 5;
  opts.first_seed = 1;
  const ExploreResult res = ex.explore(opts);
  ASSERT_TRUE(res.found_failure);
  EXPECT_EQ(res.failing_seed, 3u);
  EXPECT_EQ(res.minimal_ops, 0u);  // the ops prefix is irrelevant
  EXPECT_NE(res.repro.find("--ops=0"), std::string::npos);
}

TEST(ScheduleExplorer, ReplayUsesTheExactBudget) {
  const ScheduleExplorer ex("planted", planted, 40);
  EXPECT_TRUE(ex.replay(9, 22).ok);   // one op short of the boundary
  EXPECT_FALSE(ex.replay(9, 23).ok);  // exactly at it
  EXPECT_EQ(ex.replay(9, 5).ops_issued, 5u);
  EXPECT_EQ(ex.default_ops(), 40u);
  EXPECT_EQ(ex.name(), "planted");
}

TEST(ScheduleExplorer, ShrinkCanBeDisabled) {
  const ScheduleExplorer ex("planted", planted, 40);
  ExploreOptions opts;
  opts.seeds = 10;
  opts.first_seed = 7;
  opts.shrink = false;
  const ExploreResult res = ex.explore(opts);
  ASSERT_TRUE(res.found_failure);
  EXPECT_EQ(res.runs, 1u);  // no shrink probes
  EXPECT_EQ(res.minimal_ops, 40u);
}

TEST(ScenarioCatalogue, LooksUpKnownScenariosOnly) {
  EXPECT_FALSE(find_scenario("no_such_scenario").found);
  const auto names = scenario_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_TRUE(find_scenario(name).found) << name;
  }
}

TEST(ScenarioCatalogue, ChurnSmokesAreClean) {
  for (const char* name : {"partition_churn", "reparent_churn"}) {
    const ScenarioLookup lookup = find_scenario(name);
    ASSERT_TRUE(lookup.found) << name;
    ExploreOptions opts;
    opts.seeds = 5;
    opts.first_seed = 1;
    const ExploreResult res = lookup.explorer.explore(opts);
    EXPECT_FALSE(res.found_failure)
        << name << ": " << res.failure << "\n  repro: " << res.repro;
  }
}

}  // namespace
}  // namespace globe::check
