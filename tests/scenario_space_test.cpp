// Parameterized property sweep across the paper's scenario space: for every
// (m, ncom, wmin) cell, key invariants of the scenario generator, the
// estimator, and a short IE / Y-IE run must hold. This is the harness-level
// safety net for the Table I/II benches.
#include <gtest/gtest.h>

#include <tuple>

#include "api/api.hpp"
#include "manual_run.hpp"
#include "platform/scenario.hpp"
#include "sched/estimator.hpp"

namespace tcgrid {
namespace {

using Cell = std::tuple<int, int, long>;  // (m, ncom, wmin)

class ScenarioSpace : public ::testing::TestWithParam<Cell> {};

TEST_P(ScenarioSpace, GeneratorInvariants) {
  const auto [m, ncom, wmin] = GetParam();
  platform::ScenarioParams params;
  params.m = m;
  params.ncom = ncom;
  params.wmin = wmin;
  params.seed = 1234;
  const auto s = platform::make_scenario(params);

  EXPECT_EQ(s.platform.size(), 20);
  EXPECT_EQ(s.app.t_data, wmin);
  EXPECT_EQ(s.app.t_prog, 5 * wmin);
  long total_mu = 0;
  for (const auto& pr : s.platform.procs()) {
    EXPECT_GE(pr.speed, wmin);
    EXPECT_LE(pr.speed, 10 * wmin);
    total_mu += pr.max_tasks;
    // The paper's chains always allow failure: the DOWN column is positive.
    EXPECT_GT(pr.availability.prob(markov::State::Up, markov::State::Down), 0.0);
  }
  // Feasibility requirement of §III-C: sum mu_q >= m.
  EXPECT_GE(total_mu, m);
}

TEST_P(ScenarioSpace, EstimatorProducesSaneIterationEstimates) {
  const auto [m, ncom, wmin] = GetParam();
  platform::ScenarioParams params;
  params.m = m;
  params.ncom = ncom;
  params.wmin = wmin;
  params.seed = 99;
  const auto s = platform::make_scenario(params);
  sched::Estimator est(s.platform, s.app, 1e-6);

  std::vector<int> set;
  std::vector<sched::Estimator::CommNeed> needs;
  for (int q = 0; q < std::min(m, 6); ++q) {
    set.push_back(q);
    needs.push_back({q, s.app.t_prog + s.app.t_data});
  }
  const long w = static_cast<long>(m) * wmin;  // plausible workload
  const auto e = est.evaluate(needs, set, w);
  EXPECT_GT(e.p_success, 0.0);
  EXPECT_LE(e.p_success, 1.0);
  EXPECT_GE(e.e_time, static_cast<double>(w));
  EXPECT_TRUE(std::isfinite(e.e_time));
}

TEST_P(ScenarioSpace, ShortRunsCompleteAndPair) {
  const auto [m, ncom, wmin] = GetParam();
  platform::ScenarioParams params;
  params.m = m;
  params.ncom = ncom;
  params.wmin = wmin;
  params.seed = 7;
  params.iterations = 2;
  const auto s = platform::make_scenario(params);
  sched::Estimator est(s.platform, s.app, 1e-6);
  // Tight cap keeps the hardest cells fast; a capped run is a valid outcome
  // for this invariant test (the success branch simply doesn't fire).
  const long cap = 60000;

  const auto ie = manual_run(s, est, "IE", 0, cap);
  const auto yie = manual_run(s, est, "Y-IE", 0, cap);
  if (ie.success) {
    EXPECT_EQ(ie.iterations_completed, 2);
    EXPECT_GT(ie.makespan, 0);
  }
  if (yie.success) EXPECT_EQ(yie.iterations_completed, 2);
  // Paired determinism: the facade, with its own cached estimator, replays
  // the same trial.
  api::Options options;
  options.slot_cap = cap;
  api::Session session(options);
  const auto ie2 = session.run_trial(params, "IE", 0);
  EXPECT_EQ(ie.success, ie2.success);
  EXPECT_EQ(ie.makespan, ie2.makespan);
  EXPECT_EQ(yie.makespan, session.run_trial(params, "Y-IE", 0).makespan);
}

// NOTE: no structured bindings inside the name generator — the macro would
// split on the binding list's commas.
std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return "m" + std::to_string(std::get<0>(info.param)) + "_ncom" +
         std::to_string(std::get<1>(info.param)) + "_wmin" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, ScenarioSpace,
    ::testing::Combine(::testing::Values(5, 10), ::testing::Values(5, 10, 20),
                       ::testing::Values(1L, 4L, 10L)),
    cell_name);

}  // namespace
}  // namespace tcgrid
