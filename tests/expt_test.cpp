// Tests of the experiment harness (§VII-A): metrics arithmetic, the scenario
// grid, the paired-trial guarantee, and a miniature end-to-end sweep through
// api::Session with the paper's qualitative expectations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "api/api.hpp"
#include "expt/metrics.hpp"
#include "expt/report.hpp"

namespace tcgrid::expt {
namespace {

// -------------------------------------------------------------- metrics ----

TEST(Metrics, RelativeDiffBasics) {
  ScenarioOutcomes h{{true, 120}, {true, 80}};
  ScenarioOutcomes ref{{true, 100}, {true, 100}};
  double d = 0.0;
  ASSERT_TRUE(scenario_relative_diff(h, ref, d));
  EXPECT_DOUBLE_EQ(d, 0.0);  // means equal (100 vs 100)
}

TEST(Metrics, RelativeDiffSignConvention) {
  // H slower than the reference -> positive; faster -> negative, normalized
  // by the better (smaller) makespan.
  ScenarioOutcomes slow{{true, 150}};
  ScenarioOutcomes fast{{true, 50}};
  ScenarioOutcomes ref{{true, 100}};
  double d = 0.0;
  ASSERT_TRUE(scenario_relative_diff(slow, ref, d));
  EXPECT_DOUBLE_EQ(d, 0.5);
  ASSERT_TRUE(scenario_relative_diff(fast, ref, d));
  EXPECT_DOUBLE_EQ(d, -1.0);
}

TEST(Metrics, RelativeDiffSkipsFailedTrials) {
  ScenarioOutcomes h{{false, 999999}, {true, 100}};
  ScenarioOutcomes ref{{true, 50}, {true, 50}};
  double d = 0.0;
  ASSERT_TRUE(scenario_relative_diff(h, ref, d));
  EXPECT_DOUBLE_EQ(d, 1.0);  // only the second trial is compared
}

TEST(Metrics, RelativeDiffFalseWhenNoComparableTrial) {
  ScenarioOutcomes h{{false, 1}};
  ScenarioOutcomes ref{{true, 1}};
  double d = 0.0;
  EXPECT_FALSE(scenario_relative_diff(h, ref, d));
}

TEST(Metrics, MismatchedTrialCountsThrow) {
  ScenarioOutcomes h{{true, 1}};
  ScenarioOutcomes ref{{true, 1}, {true, 2}};
  double d = 0.0;
  EXPECT_THROW((void)scenario_relative_diff(h, ref, d), std::invalid_argument);
}

TEST(Metrics, SummarizeCountsWinsAndFails) {
  // Scenario 1: H wins trial 0 (90 <= 100), loses trial 1 but within 30%.
  // Scenario 2: H fails trial 0, wins trial 1 exactly.
  std::vector<ScenarioOutcomes> h{
      {{true, 90}, {true, 120}},
      {{false, 100000}, {true, 100}},
  };
  std::vector<ScenarioOutcomes> ref{
      {{true, 100}, {true, 100}},
      {{true, 100}, {true, 100}},
  };
  auto s = summarize("H", h, ref);
  EXPECT_EQ(s.fails, 1);
  EXPECT_DOUBLE_EQ(s.pct_wins, 50.0);     // 2 wins of 4 trials
  EXPECT_DOUBLE_EQ(s.pct_wins30, 75.0);   // 3 of 4 within +30%
  EXPECT_EQ(s.scenarios_compared, 2);
}

TEST(Metrics, SummarizeAgainstSelfIsPerfect) {
  std::vector<ScenarioOutcomes> h{{{true, 90}, {true, 120}}, {{true, 55}}};
  auto s = summarize("self", h, h);
  EXPECT_EQ(s.fails, 0);
  EXPECT_DOUBLE_EQ(s.pct_diff, 0.0);
  EXPECT_DOUBLE_EQ(s.pct_wins, 100.0);
  EXPECT_DOUBLE_EQ(s.pct_wins30, 100.0);
  EXPECT_DOUBLE_EQ(s.stdv, 0.0);
}

TEST(Metrics, WinAgainstFailedReference) {
  std::vector<ScenarioOutcomes> h{{{true, 500}}};
  std::vector<ScenarioOutcomes> ref{{{false, 1000}}};
  auto s = summarize("H", h, ref);
  EXPECT_DOUBLE_EQ(s.pct_wins, 100.0);
  EXPECT_EQ(s.scenarios_compared, 0);  // no paired successes -> no %diff data
}

// ------------------------------------------------------------- scenario ----

TEST(Grid, SizeAndDeterminism) {
  api::ExperimentSpec spec;
  spec.grid.ms = {5, 10};
  spec.grid.ncoms = {5, 20};
  spec.grid.wmins = {1, 3};
  spec.grid.scenarios_per_cell = 3;
  auto grid1 = spec.scenarios();
  auto grid2 = spec.scenarios();
  EXPECT_EQ(grid1.size(), 2u * 2u * 2u * 3u);
  for (std::size_t i = 0; i < grid1.size(); ++i) {
    EXPECT_EQ(grid1[i].seed, grid2[i].seed);
  }
  // All seeds distinct.
  std::set<std::uint64_t> seeds;
  for (const auto& p : grid1) seeds.insert(p.seed);
  EXPECT_EQ(seeds.size(), grid1.size());
}

TEST(Grid, CarriesParameters) {
  api::ExperimentSpec spec;
  spec.grid.ms = {7};
  spec.grid.ncoms = {9};
  spec.grid.wmins = {4};
  spec.grid.scenarios_per_cell = 1;
  spec.grid.iterations = 5;
  spec.grid.p = 12;
  auto grid = spec.scenarios();
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid[0].m, 7);
  EXPECT_EQ(grid[0].ncom, 9);
  EXPECT_EQ(grid[0].wmin, 4);
  EXPECT_EQ(grid[0].iterations, 5);
  EXPECT_EQ(grid[0].p, 12);
}

// --------------------------------------------------------------- trials ----

api::Session capped_session() {
  api::Options options;
  options.slot_cap = 100000;
  return api::Session(options);
}

TEST(Runner, SameTrialSameHeuristicIsDeterministic) {
  platform::ScenarioParams params;
  params.seed = 12;
  params.iterations = 3;
  api::Session session = capped_session();
  auto a = session.run_trial(params, "Y-IE", 0);
  auto b = session.run_trial(params, "Y-IE", 0);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
}

TEST(Runner, DifferentTrialsDiffer) {
  platform::ScenarioParams params;
  params.seed = 12;
  params.iterations = 3;
  api::Session session = capped_session();
  std::set<long> makespans;
  for (int trial = 0; trial < 5; ++trial) {
    makespans.insert(session.run_trial(params, "IE", trial).makespan);
  }
  EXPECT_GT(makespans.size(), 1u);
}

// ---------------------------------------------------------------- sweep ----

api::ExperimentSpec mini_spec() {
  api::ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1};
  spec.grid.scenarios_per_cell = 2;
  spec.grid.iterations = 3;
  spec.trials = 2;
  spec.options.slot_cap = 100000;
  spec.heuristics = {"RANDOM", "IE", "Y-IE"};
  spec.options.threads = 1;
  return spec;
}

SweepResults aggregate_sweep(const api::ExperimentSpec& spec) {
  api::AggregateSink aggregate;
  api::Session().run(spec, {&aggregate});
  return std::move(aggregate).take();
}

TEST(Sweep, ShapesAndDeterminism) {
  const auto spec = mini_spec();
  auto r1 = aggregate_sweep(spec);
  EXPECT_EQ(r1.heuristics.size(), 3u);
  EXPECT_EQ(r1.scenarios.size(), 2u);
  ASSERT_EQ(r1.outcomes.size(), 3u);
  ASSERT_EQ(r1.outcomes[0].size(), 2u);
  ASSERT_EQ(r1.outcomes[0][0].size(), 2u);

  auto r2 = aggregate_sweep(spec);
  for (std::size_t h = 0; h < 3; ++h) {
    for (std::size_t sc = 0; sc < 2; ++sc) {
      for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_EQ(r1.outcomes[h][sc][t].makespan, r2.outcomes[h][sc][t].makespan);
      }
    }
  }
}

TEST(Sweep, HeuristicIndexLookup) {
  SweepResults r;
  r.heuristics = {"RANDOM", "IE", "Y-IE"};
  EXPECT_EQ(r.heuristic_index("IE"), 1);
  // Contract: unknown names throw (the index addresses `outcomes`, so a
  // sentinel would invite out-of-bounds use); try_heuristic_index probes.
  EXPECT_THROW((void)r.heuristic_index("nope"), std::invalid_argument);
  EXPECT_EQ(r.try_heuristic_index("Y-IE"), 2);
  EXPECT_EQ(r.try_heuristic_index("nope"), -1);
}

// --------------------------------------------------------------- report ----

TEST(Report, SummariesSortedAndReferenceIsZero) {
  auto results = aggregate_sweep(mini_spec());
  auto summaries = summarize_all(results, "IE");
  ASSERT_EQ(summaries.size(), 3u);
  for (std::size_t i = 1; i < summaries.size(); ++i) {
    EXPECT_LE(summaries[i - 1].pct_diff, summaries[i].pct_diff);
  }
  for (const auto& s : summaries) {
    if (s.name == "IE") {
      EXPECT_DOUBLE_EQ(s.pct_diff, 0.0);
      EXPECT_DOUBLE_EQ(s.pct_wins, 100.0);
    }
    if (s.name == "RANDOM") {
      // The paper's headline: RANDOM is far worse than the informed
      // heuristics, on every sweep size.
      EXPECT_GT(s.pct_diff, 0.0);
    }
  }
  auto table = paper_table(summaries);
  EXPECT_EQ(table.rows(), 3u);
  EXPECT_NE(table.str().find("RANDOM"), std::string::npos);
}

TEST(Report, Figure2SeriesCoversWmins) {
  auto spec = mini_spec();
  spec.grid.wmins = {1, 2};
  auto results = aggregate_sweep(spec);
  auto series = figure2_series(results, "IE");
  ASSERT_EQ(series.size(), 3u);
  for (const auto& [name, points] : series) {
    EXPECT_EQ(points.size(), 2u) << name;
    EXPECT_EQ(points[0].first, 1);
    EXPECT_EQ(points[1].first, 2);
  }
  // Reference series is identically zero.
  for (const auto& [wmin, v] : series.at("IE")) EXPECT_DOUBLE_EQ(v, 0.0);
  auto table = figure2_table(series);
  EXPECT_EQ(table.rows(), 2u);
}

}  // namespace
}  // namespace tcgrid::expt
