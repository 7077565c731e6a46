// Tests of the 17 heuristics (§VI): registry, incremental builders' choices
// (speed vs reliability trade-offs), the RANDOM baseline, passivity, and
// proactive switching / stability / caching equivalence.
#include <gtest/gtest.h>

#include <set>

#include "platform/availability.hpp"
#include "platform/scenario.hpp"
#include "sched/heuristics.hpp"
#include "sched/registry.hpp"
#include "scen/registry.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tcgrid::sched {
namespace {

using markov::State;

/// Owns everything a SchedulerView points into, for driving builders and
/// schedulers without an engine.
struct ViewFixture {
  platform::Platform plat;
  model::Application app;
  std::vector<State> states;
  std::vector<model::Holdings> holdings;
  std::vector<long> comm_rem;

  ViewFixture(platform::Platform p, model::Application a)
      : plat(std::move(p)),
        app(a),
        states(static_cast<std::size_t>(plat.size()), State::Up),
        holdings(static_cast<std::size_t>(plat.size())),
        comm_rem(static_cast<std::size_t>(plat.size()), 0) {}

  [[nodiscard]] sim::SchedulerView view(const model::Configuration* config = nullptr,
                                        long elapsed = 0, long w_total = 0,
                                        long w_done = 0) {
    sim::SchedulerView v;
    v.slot = elapsed;
    v.platform = &plat;
    v.app = &app;
    v.states = states;
    v.holdings = holdings;
    v.config = config;
    v.iteration_elapsed = elapsed;
    v.compute_total = w_total;
    v.compute_done = w_done;
    v.comm_remaining = comm_rem;
    return v;
  }
};

platform::Platform heterogeneous_platform() {
  // P0: fast & reliable; P1: slow & reliable; P2: fast & flaky; P3: slow & flaky.
  std::vector<platform::Processor> procs(4);
  procs[0].speed = 2;
  procs[1].speed = 10;
  procs[2].speed = 2;
  procs[3].speed = 10;
  for (auto& pr : procs) pr.max_tasks = 8;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.9, 0.9);
  procs[1].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.9, 0.9);
  procs[2].availability = markov::TransitionMatrix::from_self_loops(0.70, 0.9, 0.9);
  procs[3].availability = markov::TransitionMatrix::from_self_loops(0.70, 0.9, 0.9);
  return platform::Platform(std::move(procs), 2);
}

model::Application small_app(int m, long t_prog = 4, long t_data = 1) {
  model::Application app;
  app.num_tasks = m;
  app.t_prog = t_prog;
  app.t_data = t_data;
  app.iterations = 10;
  return app;
}

// ------------------------------------------------------------ registry ----

TEST(Registry, SeventeenNames) {
  const auto& names = all_heuristic_names();
  EXPECT_EQ(names.size(), 17u);
  EXPECT_EQ(names.front(), "RANDOM");
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), 17u);
}

TEST(Registry, MakeSchedulerRoundTripsNames) {
  auto plat = heterogeneous_platform();
  auto app = small_app(3);
  Estimator est(plat, app, 1e-8);
  for (const auto& name : all_heuristic_names()) {
    auto s = make_scheduler(name, est, 1);
    EXPECT_EQ(s->name(), name);
    EXPECT_TRUE(is_heuristic_name(name));
  }
}

TEST(Registry, UnknownNameThrows) {
  auto plat = heterogeneous_platform();
  auto app = small_app(3);
  Estimator est(plat, app, 1e-8);
  EXPECT_THROW((void)make_scheduler("Z-IE", est), std::invalid_argument);
  EXPECT_THROW((void)make_scheduler("IEE", est), std::invalid_argument);
  EXPECT_THROW((void)make_scheduler("", est), std::invalid_argument);
  EXPECT_FALSE(is_heuristic_name("nope"));
}

TEST(Registry, TableIINamesAreValid) {
  EXPECT_EQ(tableii_heuristic_names().size(), 8u);
  for (const auto& n : tableii_heuristic_names()) EXPECT_TRUE(is_heuristic_name(n));
}

// -------------------------------------------------- incremental builder ----

TEST(IncrementalBuilder, MapsExactlyMTasks) {
  ViewFixture fx(heterogeneous_platform(), small_app(5));
  Estimator est(fx.plat, fx.app, 1e-8);
  for (Rule rule : {Rule::IP, Rule::IE, Rule::IY, Rule::IAY}) {
    IncrementalBuilder builder(rule, est);
    auto built = builder.build(fx.view());
    ASSERT_FALSE(built.config.empty()) << to_string(rule);
    EXPECT_EQ(built.config.total_tasks(), 5);
    EXPECT_GT(built.estimate.p_success, 0.0);
    EXPECT_GT(built.estimate.e_time, 0.0);
  }
}

TEST(IncrementalBuilder, IEPrefersFastReliableWorker) {
  ViewFixture fx(heterogeneous_platform(), small_app(1));
  Estimator est(fx.plat, fx.app, 1e-8);
  IncrementalBuilder ie(Rule::IE, est);
  auto built = ie.build(fx.view());
  ASSERT_EQ(built.config.size(), 1u);
  EXPECT_EQ(built.config.assignments()[0].proc, 0);  // fast & reliable
}

TEST(IncrementalBuilder, IPPrefersReliabilityOverSpeed) {
  // Make the reliable workers slow and the flaky ones fast; IP should still
  // enroll a reliable one, IE the fast flaky one (shorter expected time can
  // tolerate some risk — exact preference pinned by construction).
  std::vector<platform::Processor> procs(2);
  procs[0].speed = 20;  // slow, never fails
  procs[0].max_tasks = 4;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(1.0, 0.9, 0.9);
  procs[1].speed = 1;  // fast, flaky
  procs[1].max_tasks = 4;
  procs[1].availability = markov::TransitionMatrix::from_self_loops(0.7, 0.9, 0.9);
  platform::Platform plat(std::move(procs), 2);
  ViewFixture fx(std::move(plat), small_app(1, /*t_prog=*/0, /*t_data=*/0));
  Estimator est(fx.plat, fx.app, 1e-8);

  auto ip = IncrementalBuilder(Rule::IP, est).build(fx.view());
  ASSERT_EQ(ip.config.size(), 1u);
  EXPECT_EQ(ip.config.assignments()[0].proc, 0);
  EXPECT_DOUBLE_EQ(ip.estimate.p_success, 1.0);

  auto ie = IncrementalBuilder(Rule::IE, est).build(fx.view());
  ASSERT_EQ(ie.config.size(), 1u);
  EXPECT_EQ(ie.config.assignments()[0].proc, 1);
}

TEST(IncrementalBuilder, RespectsMuBound) {
  std::vector<platform::Processor> procs(2);
  for (auto& pr : procs) {
    pr.speed = 1;
    pr.max_tasks = 2;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
  }
  platform::Platform plat(std::move(procs), 2);
  ViewFixture fx(std::move(plat), small_app(4));
  Estimator est(fx.plat, fx.app, 1e-8);
  auto built = IncrementalBuilder(Rule::IE, est).build(fx.view());
  ASSERT_FALSE(built.config.empty());
  for (const auto& a : built.config.assignments()) EXPECT_LE(a.tasks, 2);
  EXPECT_EQ(built.config.total_tasks(), 4);
}

TEST(IncrementalBuilder, EmptyWhenInsufficientCapacity) {
  std::vector<platform::Processor> procs(2);
  for (auto& pr : procs) {
    pr.speed = 1;
    pr.max_tasks = 1;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
  }
  platform::Platform plat(std::move(procs), 2);
  ViewFixture fx(std::move(plat), small_app(4));  // m = 4 > capacity 2
  Estimator est(fx.plat, fx.app, 1e-8);
  EXPECT_TRUE(IncrementalBuilder(Rule::IE, est).build(fx.view()).config.empty());
}

TEST(IncrementalBuilder, SkipsNonUpWorkers) {
  ViewFixture fx(heterogeneous_platform(), small_app(2));
  fx.states[0] = State::Down;
  fx.states[1] = State::Reclaimed;
  Estimator est(fx.plat, fx.app, 1e-8);
  auto built = IncrementalBuilder(Rule::IE, est).build(fx.view());
  ASSERT_FALSE(built.config.empty());
  for (const auto& a : built.config.assignments()) {
    EXPECT_TRUE(a.proc == 2 || a.proc == 3);
  }
}

TEST(IncrementalBuilder, CreditsHeldProgramAndData) {
  // P1 is slightly slower but already holds the program: with a large
  // program cost IE should prefer it over an otherwise identical worker.
  std::vector<platform::Processor> procs(2);
  for (auto& pr : procs) {
    pr.max_tasks = 4;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.97, 0.9, 0.9);
  }
  procs[0].speed = 3;
  procs[1].speed = 4;
  platform::Platform plat(std::move(procs), 2);
  ViewFixture fx(std::move(plat), small_app(1, /*t_prog=*/50, /*t_data=*/1));
  fx.holdings[1].has_program = true;
  Estimator est(fx.plat, fx.app, 1e-8);
  auto built = IncrementalBuilder(Rule::IE, est).build(fx.view());
  ASSERT_EQ(built.config.size(), 1u);
  EXPECT_EQ(built.config.assignments()[0].proc, 1);
}

TEST(IncrementalBuilder, EstimateFreshMatchesBuildEstimate) {
  ViewFixture fx(heterogeneous_platform(), small_app(3));
  Estimator est(fx.plat, fx.app, 1e-8);
  IncrementalBuilder builder(Rule::IAY, est);
  auto built = builder.build(fx.view());
  ASSERT_FALSE(built.config.empty());
  auto re = builder.estimate_fresh(fx.view(), built.config);
  EXPECT_NEAR(re.p_success, built.estimate.p_success, 1e-12);
  EXPECT_NEAR(re.e_time, built.estimate.e_time, 1e-12);
}

TEST(IncrementalBuilder, JoinerTyingTheRoundWinnerAtALowerIndexWins) {
  // Two identical workers. With only P1 UP the build picks P1; once P0
  // joins, a fresh build picks P0: equal scores, and the argmax keeps the
  // lower index. Reusing the previous build here would keep P1.
  std::vector<platform::Processor> procs(2);
  for (auto& pr : procs) {
    pr.speed = 2;
    pr.max_tasks = 4;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
  }
  ViewFixture fx(platform::Platform(std::move(procs), 2), small_app(1));
  Estimator est(fx.plat, fx.app, 1e-8);
  IncrementalBuilder builder(Rule::IE, est);

  fx.states[0] = State::Reclaimed;
  const auto first = builder.build(fx.view());
  ASSERT_EQ(first.config.size(), 1u);
  EXPECT_EQ(first.config.assignments()[0].proc, 1);

  fx.states[0] = State::Up;
  const auto second = builder.build(fx.view());
  ASSERT_EQ(second.config.size(), 1u);
  EXPECT_EQ(second.config.assignments()[0].proc, 0);
  EXPECT_EQ(builder.counts().reuses, 0);
  EXPECT_EQ(builder.counts().fresh_builds, 2);
}

TEST(IncrementalBuilder, ReuseAndMemoMatchFreshBuildsOnRandomWalks) {
  // Walk the (UP set, holdings) inputs one or two workers at a time — the
  // way availability flaps and transfers move them — and check every
  // answer of a reusing, memoizing builder against a fresh build: the
  // configuration, the estimate and each round's winner, bit for bit.
  for (const char* family : {"paper", "clusters"}) {
    platform::ScenarioParams params;
    params.m = 5;
    params.ncom = 5;
    params.seed = 31;
    const auto scenario = scen::platform_family(family)->make(params);
    ViewFixture fx(scenario.platform, scenario.app);
    Estimator est(fx.plat, fx.app, 1e-6);
    for (Rule rule : {Rule::IP, Rule::IE, Rule::IAY}) {
      IncrementalBuilder builder(rule, est);
      IncrementalBuilder fresh(rule, est);
      fresh.set_memo(false);
      util::Rng rng(7);
      for (int step = 0; step < 400; ++step) {
        const int flips = 1 + static_cast<int>(rng.index(2));
        for (int f = 0; f < flips; ++f) {
          const auto q = rng.index(fx.states.size());
          switch (rng.index(3)) {
            case 0:
              fx.states[q] = fx.states[q] == State::Up ? State::Reclaimed : State::Up;
              break;
            case 1:
              fx.holdings[q].has_program = !fx.holdings[q].has_program;
              break;
            default:
              fx.holdings[q].data_messages = static_cast<int>(rng.index(3));
          }
        }
        const BuiltConfiguration& got = builder.build_memoized(fx.view());
        const BuiltConfiguration want = fresh.build(fx.view());
        ASSERT_TRUE(got.config == want.config) << family << " step " << step;
        ASSERT_EQ(got.estimate.p_success, want.estimate.p_success);
        ASSERT_EQ(got.estimate.e_time, want.estimate.e_time);
        ASSERT_EQ(got.rounds.size(), want.rounds.size());
        for (std::size_t i = 0; i < got.rounds.size(); ++i) {
          ASSERT_EQ(got.rounds[i].proc, want.rounds[i].proc);
          ASSERT_EQ(got.rounds[i].score, want.rounds[i].score);
        }
      }
      const BuildCounts& c = builder.counts();
      EXPECT_EQ(c.reuses + c.memo_hits + c.fresh_builds, 400);
      EXPECT_GT(c.reuses, 0) << family << " " << to_string(rule);
      EXPECT_EQ(fresh.counts().fresh_builds, 400);
    }
  }
}

// -------------------------------------------------------------- RANDOM ----

TEST(Random, DeterministicPerSeed) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  RandomScheduler a(9), b(9);
  auto ca = a.decide(fx.view());
  auto cb = b.decide(fx.view());
  ASSERT_TRUE(ca.has_value());
  ASSERT_TRUE(cb.has_value());
  EXPECT_TRUE(*ca == *cb);
}

TEST(Random, UsesOnlyUpWorkersAndAllTasks) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  fx.states[2] = State::Down;
  RandomScheduler s(10);
  auto c = s.decide(fx.view());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->total_tasks(), 4);
  EXPECT_FALSE(c->enrolled(2));
}

TEST(Random, PassiveWhenConfigExists) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  model::Configuration current({{0, 4}});
  RandomScheduler s(11);
  EXPECT_FALSE(s.decide(fx.view(&current)).has_value());
}

TEST(Random, VariesAcrossSeeds) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  std::set<int> first_procs;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    RandomScheduler s(seed);
    auto c = s.decide(fx.view());
    ASSERT_TRUE(c.has_value());
    first_procs.insert(c->assignments()[0].proc);
  }
  EXPECT_GT(first_procs.size(), 1u);
}

TEST(Random, NulloptWhenNoCapacity) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  for (auto& s : fx.states) s = State::Down;
  RandomScheduler s(12);
  EXPECT_FALSE(s.decide(fx.view()).has_value());
}

// ------------------------------------------------------------- passive ----

TEST(Passive, OnlyProposesWithoutConfig) {
  ViewFixture fx(heterogeneous_platform(), small_app(3));
  Estimator est(fx.plat, fx.app, 1e-8);
  PassiveScheduler s(Rule::IE, est);
  auto first = s.decide(fx.view());
  ASSERT_TRUE(first.has_value());
  model::Configuration current = *first;
  EXPECT_FALSE(s.decide(fx.view(&current, 5, 10, 2)).has_value());
}

// ----------------------------------------------------------- proactive ----

TEST(Proactive, StableOnStaticPlatform) {
  // Nothing changes -> after the initial install there is never a strictly
  // better candidate, so no reconfigurations (the §VI-B stability property).
  auto plat = heterogeneous_platform();
  auto app = small_app(3);
  Estimator est(plat, app, 1e-8);
  ProactiveScheduler sched(Criterion::Y, Rule::IE, est);
  platform::FixedAvailability avail(
      {std::vector<State>(static_cast<std::size_t>(plat.size()), State::Up)});
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.total_reconfigurations, 0);
}

TEST(Proactive, SwitchesWhenBetterWorkersAppear) {
  // Only the two flaky-slow workers are UP at first; the good workers come
  // up at slot 3. A proactive Y-IE should abandon the initial configuration.
  std::vector<platform::Processor> procs(4);
  procs[0].speed = 1;
  procs[1].speed = 1;
  procs[2].speed = 30;
  procs[3].speed = 30;
  for (auto& pr : procs) pr.max_tasks = 8;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.99, 0.9);
  procs[1].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.99, 0.9);
  procs[2].availability = markov::TransitionMatrix::from_self_loops(0.80, 0.9, 0.9);
  procs[3].availability = markov::TransitionMatrix::from_self_loops(0.80, 0.9, 0.9);
  platform::Platform plat(std::move(procs), 4);

  auto app = small_app(2, /*t_prog=*/2, /*t_data=*/1);
  app.iterations = 1;

  std::vector<std::vector<State>> script(
      3, {State::Reclaimed, State::Reclaimed, State::Up, State::Up});
  // After slot 3 everything is UP (beyond-horizon default).
  Estimator est(plat, app, 1e-8);
  ProactiveScheduler proactive(Criterion::Y, Rule::IE, est);
  platform::FixedAvailability avail1(script);
  sim::Engine e1(plat, app, avail1, proactive, {});
  auto r1 = e1.run();
  EXPECT_TRUE(r1.success);
  EXPECT_GE(r1.total_reconfigurations, 1);

  PassiveScheduler passive(Rule::IE, est);
  platform::FixedAvailability avail2(script);
  sim::Engine e2(plat, app, avail2, passive, {});
  auto r2 = e2.run();
  EXPECT_TRUE(r2.success);
  EXPECT_EQ(r2.total_reconfigurations, 0);
  // The proactive run moved to the fast workers and finished sooner.
  EXPECT_LT(r1.makespan, r2.makespan);
}

void expect_identical(const sim::SimulationResult& a, const sim::SimulationResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.success, b.success) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.iterations_completed, b.iterations_completed) << what;
  EXPECT_EQ(a.total_restarts, b.total_restarts) << what;
  EXPECT_EQ(a.total_reconfigurations, b.total_reconfigurations) << what;
  EXPECT_EQ(a.idle_slots, b.idle_slots) << what;
  ASSERT_EQ(a.iterations.size(), b.iterations.size()) << what;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const sim::IterationStats& x = a.iterations[i];
    const sim::IterationStats& y = b.iterations[i];
    EXPECT_EQ(x.start_slot, y.start_slot) << what << " iteration " << i;
    EXPECT_EQ(x.end_slot, y.end_slot) << what << " iteration " << i;
    EXPECT_EQ(x.comm_slots, y.comm_slots) << what << " iteration " << i;
    EXPECT_EQ(x.stalled_slots, y.stalled_slots) << what << " iteration " << i;
    EXPECT_EQ(x.compute_slots, y.compute_slots) << what << " iteration " << i;
    EXPECT_EQ(x.suspended_slots, y.suspended_slots) << what << " iteration " << i;
    EXPECT_EQ(x.restarts, y.restarts) << what << " iteration " << i;
    EXPECT_EQ(x.reconfigurations, y.reconfigurations) << what << " iteration " << i;
  }
}

TEST(Proactive, CachingDoesNotChangeSchedules) {
  // Candidate reuse plus the build memo against the full build at every
  // consult, for all 12 C-H variants, on the paper platform and on the
  // clusters platform (where the CandClass dedup fires).
  for (const char* family : {"paper", "clusters"}) {
    platform::ScenarioParams params;
    params.m = 5;
    params.ncom = 5;
    params.wmin = 2;
    params.seed = 17;
    const auto scenario = scen::platform_family(family)->make(params);
    Estimator est(scenario.platform, scenario.app, 1e-6);

    for (Criterion crit : {Criterion::P, Criterion::E, Criterion::Y}) {
      for (Rule rule : {Rule::IP, Rule::IE, Rule::IY, Rule::IAY}) {
        const std::string what = std::string(family) + " " +
                                 std::string(to_string(crit)) + "-" +
                                 std::string(to_string(rule));
        sim::SimulationResult results[2];
        BuildCounts counts[2];
        for (int pass = 0; pass < 2; ++pass) {
          ProactiveScheduler sched(crit, rule, est);
          sched.set_caching(pass == 0);
          platform::MarkovAvailability avail(scenario.platform, 555);
          sim::EngineOptions opts;
          opts.slot_cap = 100000;
          sim::Engine engine(scenario.platform, scenario.app, avail, sched, opts);
          results[pass] = engine.run();
          counts[pass] = sched.build_counts();
        }
        expect_identical(results[0], results[1], what);
        EXPECT_EQ(counts[1].reuses + counts[1].memo_hits, 0) << what;
        if (rule != Rule::IY) EXPECT_GT(counts[0].reuses, 0) << what;
      }
    }
  }
}

TEST(Proactive, NonMonotoneCommTableReportsEverySlotInCommPhase) {
  // One worker, one task: the candidate is the installed configuration, so
  // every consult answers "no switch". In the comm phase that answer only
  // promises to hold through transfer progress if the worker's tables are
  // monotone; a decreasing expected_time table must withdraw the promise.
  std::vector<platform::Processor> procs(1);
  procs[0].speed = 2;
  procs[0].max_tasks = 2;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
  auto app = small_app(1, /*t_prog=*/4, /*t_data=*/2);
  ViewFixture fx(platform::Platform(std::move(procs), 1), app);
  const model::Configuration cfg({{0, 1}});
  const long w = cfg.compute_slots(fx.plat.speeds());

  for (bool monotone : {true, false}) {
    Estimator est(fx.plat, fx.app, 1e-8);
    if (!monotone) {
      markov::CoupledStats bent;
      bent.p_plus = 1.0;
      bent.ec = -0.5;  // E(n) = 1 - (n-1)/2: falls as n grows
      est.set_proc_stats_for_test(0, bent);
    }
    ProactiveScheduler sched(Criterion::E, Rule::IE, est);
    fx.comm_rem[0] = 6;  // comm phase: program and data still to send
    EXPECT_FALSE(sched.decide(fx.view(&cfg, 3, w)).has_value());
    EXPECT_EQ(sched.quiescence().kind, monotone ? sim::Quiescence::Kind::UntilEvent
                                                : sim::Quiescence::Kind::EverySlot);
    fx.holdings[0].has_program = true;  // compute phase: nothing to progress
    fx.holdings[0].data_messages = 1;
    fx.comm_rem[0] = 0;
    EXPECT_FALSE(sched.decide(fx.view(&cfg, 9, w)).has_value());
    EXPECT_EQ(sched.quiescence().kind, sim::Quiescence::Kind::UntilEvent);
    fx.holdings[0] = {};
  }
}

// All 17 heuristics drive a full scenario without violating engine
// invariants, deterministically.
class AllHeuristics : public ::testing::TestWithParam<std::string> {};

TEST_P(AllHeuristics, RunsCleanAndDeterministic) {
  platform::ScenarioParams params;
  params.m = 5;
  params.ncom = 5;
  params.wmin = 1;
  params.seed = 23;
  params.iterations = 3;
  auto scenario = platform::make_scenario(params);
  Estimator est(scenario.platform, scenario.app, 1e-6);

  long makespans[2];
  for (int pass = 0; pass < 2; ++pass) {
    auto sched = make_scheduler(GetParam(), est, 77);
    platform::MarkovAvailability avail(scenario.platform, 999);
    sim::EngineOptions opts;
    opts.slot_cap = 200000;
    sim::Engine engine(scenario.platform, scenario.app, avail, *sched, opts);
    auto r = engine.run();
    makespans[pass] = r.makespan;
    if (r.success) {
      EXPECT_EQ(r.iterations_completed, 3);
      EXPECT_EQ(r.iterations.size(), 3u);
      for (const auto& it : r.iterations) {
        EXPECT_GT(it.compute_slots, 0);
        EXPECT_GE(it.end_slot, it.start_slot);
      }
    }
  }
  EXPECT_EQ(makespans[0], makespans[1]);
}

INSTANTIATE_TEST_SUITE_P(Registry, AllHeuristics,
                         ::testing::ValuesIn(all_heuristic_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace tcgrid::sched
