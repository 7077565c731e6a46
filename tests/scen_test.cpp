// Tests of the scenario-model subsystem: family registry semantics,
// per-family determinism (same seed -> identical timeline), equivalence of
// the per-slot and block-stepped pulls, ScenarioSpace integration through
// api::Session (paper-space bit-identity, cross-family pairing), and the
// §VII-B fit helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "manual_run.hpp"
#include "platform/cyclostationary.hpp"
#include "platform/replay.hpp"
#include "platform/scenario.hpp"
#include "scen/scen.hpp"
#include "sched/registry.hpp"
#include "util/simd.hpp"

namespace tcgrid {
namespace {

using platform::StateTimeline;
using State = markov::State;

platform::Platform small_platform(int p = 4, std::uint64_t seed = 5) {
  platform::ScenarioParams params;
  params.p = p;
  params.seed = seed;
  return platform::make_scenario(params).platform;
}

StateTimeline pull_per_slot(platform::AvailabilitySource& source, long slots) {
  StateTimeline out;
  for (long t = 0; t < slots; ++t) {
    std::vector<State> row(static_cast<std::size_t>(source.size()));
    for (int q = 0; q < source.size(); ++q) row[static_cast<std::size_t>(q)] = source.state(q);
    out.push_back(std::move(row));
    source.advance();
  }
  return out;
}

StateTimeline pull_blocks(platform::AvailabilitySource& source, long slots, long block) {
  StateTimeline out;
  const auto p = static_cast<std::size_t>(source.size());
  std::vector<State> buf(p * static_cast<std::size_t>(block));
  long pulled = 0;
  while (pulled < slots) {
    source.fill_block(buf.data(), block);
    for (long i = 0; i < block && pulled < slots; ++i, ++pulled) {
      out.emplace_back(buf.begin() + static_cast<long>(p) * i,
                       buf.begin() + static_cast<long>(p) * (i + 1));
    }
  }
  return out;
}

std::shared_ptr<const StateTimeline> checkerboard_trace(int p, long slots) {
  auto timeline = std::make_shared<StateTimeline>();
  for (long t = 0; t < slots; ++t) {
    std::vector<State> row;
    for (int q = 0; q < p; ++q) {
      row.push_back((t + q) % 3 == 0 ? State::Up
                    : (t + q) % 3 == 1 ? State::Reclaimed
                                       : State::Down);
    }
    timeline->push_back(std::move(row));
  }
  return timeline;
}

// -------------------------------------------------------------- registry ----

TEST(Registry, BuiltinsAreRegistered) {
  for (const char* name : {"markov", "weibull", "daynight"}) {
    EXPECT_TRUE(scen::is_availability_family(name)) << name;
    EXPECT_EQ(scen::availability_family(name)->name(), name);
  }
  for (const char* name : {"paper", "clusters"}) {
    EXPECT_TRUE(scen::is_platform_family(name)) << name;
    EXPECT_EQ(scen::platform_family(name)->name(), name);
  }
}

TEST(Registry, UnknownNamesThrowListingAlternatives) {
  try {
    (void)scen::availability_family("no-such-family");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("markov"), std::string::npos);
  }
  EXPECT_THROW((void)scen::platform_family("no-such-family"), std::invalid_argument);
  EXPECT_FALSE(scen::is_availability_family("no-such-family"));
}

TEST(Registry, CustomFamiliesRegisterAndRebind) {
  scen::register_availability_family(
      scen::make_trace_family("scen-test-trace", {checkerboard_trace(4, 50)}));
  EXPECT_TRUE(scen::is_availability_family("scen-test-trace"));
  const auto names = scen::availability_family_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "scen-test-trace"), names.end());

  // Re-binding a name replaces the family; sources from the old binding
  // stay valid (shared ownership).
  const auto old_family = scen::availability_family("scen-test-trace");
  const auto plat = small_platform(4);
  auto old_source = old_family->make_source(plat, 1, platform::InitialStates::Stationary);
  scen::register_availability_family(
      scen::make_trace_family("scen-test-trace", {checkerboard_trace(4, 7)}));
  auto new_source = scen::availability_family("scen-test-trace")
                        ->make_source(plat, 1, platform::InitialStates::Stationary);
  (void)pull_per_slot(*old_source, 60);  // exercises the 50-row timeline
  (void)pull_per_slot(*new_source, 10);
}

TEST(Registry, DayNightFamilyRejectsBadParamsUpFront) {
  // An amplifying night factor would only overflow rows for SOME platforms;
  // it must fail at family construction, not mid-sweep.
  EXPECT_THROW((void)scen::make_daynight_family(
                   "bad", scen::DayNightFamilyParams{.night_calm = 3.0}),
               std::invalid_argument);
  EXPECT_THROW((void)scen::make_daynight_family(
                   "bad", scen::DayNightFamilyParams{.period = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)scen::make_daynight_family(
          "bad", scen::DayNightFamilyParams{.period = 10, .day_slots = 11}),
      std::invalid_argument);
}

TEST(Registry, TraceFamilyValidatesShape) {
  EXPECT_THROW((void)scen::make_trace_family("bad", {nullptr}), std::invalid_argument);
  EXPECT_THROW((void)scen::make_trace_family(
                   "bad", {std::make_shared<StateTimeline>()}),
               std::invalid_argument);
  // Width mismatch surfaces at make_source time with both widths named.
  scen::register_availability_family(
      scen::make_trace_family("scen-test-narrow", {checkerboard_trace(3, 10)}));
  const auto plat = small_platform(4);
  EXPECT_THROW((void)scen::availability_family("scen-test-narrow")
                   ->make_source(plat, 0, platform::InitialStates::Stationary),
               std::invalid_argument);
}

// ----------------------------------------------- determinism per family ----

TEST(Families, SameSeedSameTimeline) {
  scen::register_availability_family(
      scen::make_trace_family("scen-test-det", {checkerboard_trace(4, 97)}));
  const auto plat = small_platform(4);
  for (const char* name : {"markov", "weibull", "daynight", "scen-test-det"}) {
    const auto family = scen::availability_family(name);
    auto a = family->make_source(plat, 77, platform::InitialStates::Stationary);
    auto b = family->make_source(plat, 77, platform::InitialStates::Stationary);
    EXPECT_EQ(pull_per_slot(*a, 400), pull_per_slot(*b, 400)) << name;
  }
}

TEST(Families, DifferentSeedsDiverge) {
  const auto plat = small_platform(6);
  for (const char* name : {"markov", "weibull", "daynight"}) {
    const auto family = scen::availability_family(name);
    auto a = family->make_source(plat, 1, platform::InitialStates::Stationary);
    auto b = family->make_source(plat, 2, platform::InitialStates::Stationary);
    EXPECT_NE(pull_per_slot(*a, 400), pull_per_slot(*b, 400)) << name;
  }
}

// The block-stepping contract: however availability is pulled — slot by
// slot, or in blocks of any size — the realization is identical.
TEST(Families, BlockPullMatchesPerSlotPull) {
  scen::register_availability_family(
      scen::make_trace_family("scen-test-blk", {checkerboard_trace(5, 61)}));
  const auto plat = small_platform(5, 11);
  for (const char* name : {"markov", "weibull", "daynight", "scen-test-blk"}) {
    const auto family = scen::availability_family(name);
    auto ref = family->make_source(plat, 99, platform::InitialStates::Stationary);
    const StateTimeline expected = pull_per_slot(*ref, 1000);
    for (long block : {1L, 7L, 256L}) {
      auto src = family->make_source(plat, 99, platform::InitialStates::Stationary);
      EXPECT_EQ(pull_blocks(*src, 1000, block), expected)
          << name << " block=" << block;
    }
  }
}

// Degenerate chain rows must survive the integer-cut fast path: a
// failure-free identity chain (P_up,up = 1) and a row that can never return
// to UP exercise the cut construction at c = 1.0 and c = 0.0.
TEST(Families, BlockPullHandlesDegenerateChains) {
  std::vector<platform::Processor> procs(3);
  procs[0].speed = 1;
  procs[0].max_tasks = 5;
  procs[0].availability = markov::TransitionMatrix();  // identity: Up forever
  procs[1] = procs[0];
  procs[1].availability = markov::TransitionMatrix(
      {{{0.0, 0.5, 0.5}, {0.0, 0.9, 0.1}, {0.0, 0.1, 0.9}}});  // never Up again
  procs[2] = procs[0];
  procs[2].availability = markov::TransitionMatrix::from_self_loops(0.5, 0.5, 0.5);
  const platform::Platform plat(std::move(procs), 1);

  platform::MarkovAvailability ref(plat, 123, platform::InitialStates::AllUp);
  const StateTimeline expected = pull_per_slot(ref, 2000);
  platform::MarkovAvailability blk(plat, 123, platform::InitialStates::AllUp);
  EXPECT_EQ(pull_blocks(blk, 2000, 64), expected);
  for (const auto& row : expected) EXPECT_EQ(row[0], State::Up);  // identity chain
  for (std::size_t t = 1; t < expected.size(); ++t) {
    EXPECT_NE(expected[t][1], State::Up);  // row 1 left Up and never returns
  }
}

// ----------------------------------------------------- family behaviour ----

TEST(Families, DayNightCalmEqualsPlainMarkov) {
  // night_calm = 1 makes night == day; the cyclostationary source must then
  // reproduce MarkovAvailability draw for draw (cross-validates the integer
  // cuts against markov::step's double compares).
  const auto plat = small_platform(5, 21);
  const auto family = scen::make_daynight_family(
      "calm", scen::DayNightFamilyParams{.period = 10, .day_slots = 5, .night_calm = 1.0});
  auto cyclo = family->make_source(plat, 4242, platform::InitialStates::Stationary);
  platform::MarkovAvailability plain(plat, 4242, platform::InitialStates::Stationary);
  EXPECT_EQ(pull_per_slot(*cyclo, 3000), pull_per_slot(plain, 3000));
}

// The day/night source steps each same-regime run of a block with the
// shared chain kernel and switches cut tables at every boundary. With a
// 10-slot period and 3 day slots, blocks of every size below straddle day
// and night boundaries at every phase, mixed with single advance() steps;
// the degenerate schedules (all night, all day) take the run split's edges.
// Every kernel the host supports is checked.
// Pulls `expected.size()` slots from `src` as blocks of `block` slots, each
// followed by one advance(), and checks every row against `expected`.
void expect_blocks_with_advances(platform::AvailabilitySource& src, long block,
                                 const StateTimeline& expected) {
  const int p = src.size();
  std::vector<State> buf(static_cast<std::size_t>(block * p));
  std::size_t t = 0;
  while (t + static_cast<std::size_t>(block) < expected.size()) {
    src.fill_block(buf.data(), block);
    for (long i = 0; i < block; ++i, ++t) {
      const auto* row = buf.data() + i * p;
      ASSERT_EQ(StateTimeline::value_type(row, row + p), expected[t]) << "slot " << t;
    }
    for (int q = 0; q < p; ++q) {
      ASSERT_EQ(src.state(q), expected[t][static_cast<std::size_t>(q)]) << "slot " << t;
    }
    src.advance();
    ++t;
  }
}

TEST(Families, DayNightBlocksStraddlingBoundariesMatchPerSlot) {
  const auto plat = small_platform(9, 21);
  for (const auto& [period, day] : {std::pair{10L, 3L}, std::pair{10L, 0L}, std::pair{7L, 7L},
                                    std::pair{1L, 1L}}) {
    platform::CyclostationaryAvailability ref(plat, 31, period, day, 0.2);
    const StateTimeline expected = pull_per_slot(ref, 1500);
    for (const util::SimdKernel kernel : util::kAllSimdKernels) {
      if (!util::simd_kernel_supported(kernel)) continue;
      for (long block : {1L, 2L, 3L, 7L, 10L, 64L, 313L}) {
        SCOPED_TRACE(testing::Message() << util::to_string(kernel) << " period=" << period
                                        << " day=" << day << " block=" << block);
        platform::CyclostationaryAvailability src(plat, 31, period, day, 0.2,
                                                  platform::InitialStates::Stationary, kernel);
        expect_blocks_with_advances(src, block, expected);
      }
    }
  }
}

TEST(Families, DayNightNightIsCalmer) {
  // With a tiny night_calm, state changes should be rarer at night.
  const auto plat = small_platform(8, 3);
  platform::CyclostationaryAvailability src(plat, 9, 200, 100, 0.05,
                                            platform::InitialStates::Stationary);
  const auto timeline = pull_per_slot(src, 20000);
  long day_changes = 0, night_changes = 0, day_slots = 0, night_slots = 0;
  for (std::size_t t = 1; t < timeline.size(); ++t) {
    const bool day = static_cast<long>(t) % 200 < 100;
    for (std::size_t q = 0; q < timeline[t].size(); ++q) {
      const bool changed = timeline[t][q] != timeline[t - 1][q];
      (day ? day_changes : night_changes) += changed ? 1 : 0;
    }
    (day ? day_slots : night_slots) += 1;
  }
  ASSERT_GT(day_slots, 0);
  ASSERT_GT(night_slots, 0);
  const double day_rate = static_cast<double>(day_changes) / day_slots;
  const double night_rate = static_cast<double>(night_changes) / night_slots;
  EXPECT_LT(night_rate, 0.5 * day_rate);
}

TEST(Families, TraceReplayWrapsAndRotates) {
  const auto trace = checkerboard_trace(3, 10);
  platform::TraceReplayAvailability fixed(trace, 0, /*rotate=*/false);
  const auto t1 = pull_per_slot(fixed, 25);
  for (long t = 0; t < 25; ++t) {
    EXPECT_EQ(t1[static_cast<std::size_t>(t)], (*trace)[static_cast<std::size_t>(t % 10)]);
  }
  // Rotation: some seed starts at a non-zero offset, and all replays are
  // rotations of the source trace.
  std::set<std::size_t> offsets;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    platform::TraceReplayAvailability r(trace, seed);
    offsets.insert(r.row());
  }
  EXPECT_GT(offsets.size(), 1u);
}

TEST(Families, ClusterPlatformSharesSpeedAndChainWithinClusters) {
  platform::ScenarioParams params;
  params.p = 10;
  params.wmin = 4;
  params.seed = 31;
  const auto family = scen::make_cluster_platform_family(
      "c2", scen::ClusterPlatformParams{.clusters = 2});
  const auto scenario = family->make(params);
  ASSERT_EQ(scenario.platform.size(), 10);
  // Two contiguous clusters of 5: identical speed/chain within, and (with
  // overwhelming probability under distinct draws) different across.
  auto chain_prob = [&](int q) {
    return scenario.platform.proc(q).availability.prob(State::Up, State::Up);
  };
  for (int q = 1; q < 5; ++q) {
    EXPECT_EQ(scenario.platform.proc(q).speed, scenario.platform.proc(0).speed);
    EXPECT_EQ(chain_prob(q), chain_prob(0));
  }
  for (int q = 6; q < 10; ++q) {
    EXPECT_EQ(scenario.platform.proc(q).speed, scenario.platform.proc(5).speed);
    EXPECT_EQ(chain_prob(q), chain_prob(5));
  }
  EXPECT_NE(chain_prob(0), chain_prob(5));
  // Application parameterization matches the paper family.
  EXPECT_EQ(scenario.app.t_data, 4);
  EXPECT_EQ(scenario.app.t_prog, 20);
}

TEST(Families, PaperPlatformFamilyMatchesMakeScenario) {
  platform::ScenarioParams params;
  params.seed = 77;
  params.wmin = 3;
  const auto via_family = scen::platform_family("paper")->make(params);
  const auto direct = platform::make_scenario(params);
  ASSERT_EQ(via_family.platform.size(), direct.platform.size());
  for (int q = 0; q < direct.platform.size(); ++q) {
    EXPECT_EQ(via_family.platform.proc(q).speed, direct.platform.proc(q).speed);
    for (State f : markov::kAllStates) {
      for (State t : markov::kAllStates) {
        EXPECT_EQ(via_family.platform.proc(q).availability.prob(f, t),
                  direct.platform.proc(q).availability.prob(f, t));
      }
    }
  }
}

// ------------------------------------------------------- api integration ----

api::ExperimentSpec tiny_spec() {
  api::ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1};
  spec.grid.scenarios_per_cell = 2;
  spec.grid.iterations = 3;
  spec.trials = 2;
  spec.heuristics = {"IE", "Y-IE"};
  spec.options.slot_cap = 100'000;
  spec.options.threads = 1;
  return spec;
}

// The acceptance bar of this subsystem: an ExperimentSpec with the default
// scenario_space reproduces the plain ScenarioGrid sweep EXACTLY.
TEST(Space, DefaultSpaceIsBitIdenticalToScenarioGrid) {
  const auto spec = tiny_spec();
  ASSERT_EQ(spec.scenario_space, scen::paper_space());

  api::AggregateSink via_space;
  api::Session().run(spec, {&via_space});

  // Reference: the pre-scen sweep semantics — make_scenario + estimator +
  // the manual engine wiring per (scenario, heuristic, trial).
  const auto scenarios = spec.scenarios();
  const auto& got = via_space.results();
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    const auto scenario = platform::make_scenario(scenarios[sc]);
    sched::Estimator estimator(scenario.platform, scenario.app, spec.options.eps);
    for (std::size_t h = 0; h < spec.heuristics.size(); ++h) {
      for (int trial = 0; trial < spec.trials; ++trial) {
        const auto ref = manual_run(scenario, estimator, spec.heuristics[h], trial,
                                    spec.options.slot_cap);
        const auto& out = got.outcomes[h][sc][static_cast<std::size_t>(trial)];
        EXPECT_EQ(out.makespan, ref.makespan);
        EXPECT_EQ(out.success, ref.success);
      }
    }
  }
}

TEST(Space, UnknownFamilyFailsValidationUpFront) {
  auto spec = tiny_spec();
  spec.scenario_space.availability = "nope";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tiny_spec();
  spec.scenario_space.platform = "nope";
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  api::Session session;
  EXPECT_THROW((void)session.run_trial(scen::ScenarioSpace{.availability = "nope"},
                                       spec.scenarios()[0], "IE", 0),
               std::invalid_argument);
}

TEST(Space, EveryFamilyCrossRunsDeterministically) {
  // Cross {markov, weibull, daynight} x {paper, clusters} through the full
  // facade; identical reruns must produce identical aggregates, and the
  // family name must reach the CSV sink.
  for (const char* avail : {"markov", "weibull", "daynight"}) {
    for (const char* plat : {"paper", "clusters"}) {
      auto spec = tiny_spec();
      spec.scenario_space.availability = avail;
      spec.scenario_space.platform = plat;

      std::ostringstream csv;
      api::AggregateSink a1;
      api::CsvSink sink(csv);
      api::Session().run(spec, {&a1, &sink});
      api::AggregateSink a2;
      api::Session().run(spec, {&a2});

      SCOPED_TRACE(std::string(avail) + "/" + plat);
      ASSERT_EQ(a1.results().outcomes.size(), a2.results().outcomes.size());
      for (std::size_t h = 0; h < a1.results().outcomes.size(); ++h) {
        for (std::size_t sc = 0; sc < a1.results().outcomes[h].size(); ++sc) {
          for (std::size_t t = 0; t < a1.results().outcomes[h][sc].size(); ++t) {
            EXPECT_EQ(a1.results().outcomes[h][sc][t].makespan,
                      a2.results().outcomes[h][sc][t].makespan);
          }
        }
      }
      EXPECT_NE(csv.str().find(std::string(",") + avail + ","), std::string::npos);
    }
  }
}

TEST(Space, PairedTrialInvarianceThroughSession) {
  // Re-running a (space, scenario, heuristic, trial) after other work must
  // reproduce the first result exactly: sources are pure functions of their
  // seeds, never shared or advanced across runs.
  api::Options options;
  options.slot_cap = 100'000;
  api::Session session(options);
  platform::ScenarioParams params;
  params.iterations = 3;
  params.seed = 1234;
  for (const char* avail : {"markov", "weibull", "daynight"}) {
    const scen::ScenarioSpace space{.availability = avail};
    const auto first = session.run_trial(space, params, "IE", 1);
    (void)session.run_trial(space, params, "Y-IE", 1);  // interleaved work
    (void)session.run_trial(space, params, "IE", 0);
    const auto again = session.run_trial(space, params, "IE", 1);
    SCOPED_TRACE(avail);
    EXPECT_EQ(first.makespan, again.makespan);
    EXPECT_EQ(first.success, again.success);
    EXPECT_EQ(first.total_restarts, again.total_restarts);
  }
}

TEST(Space, SessionHonorsPlatformFamilyRebinding) {
  // The per-thread scenario cache keys on family object identity: after a
  // name is re-registered, a long-lived Session must build scenarios with
  // the NEW family, not serve the stale cached instantiation.
  struct FixedIterations final : scen::PlatformFamily {
    std::string name_;
    int iterations;
    FixedIterations(std::string n, int it) : name_(std::move(n)), iterations(it) {}
    const std::string& name() const override { return name_; }
    platform::Scenario make(const platform::ScenarioParams& params) const override {
      auto p = params;
      p.iterations = iterations;
      return platform::make_scenario(p);
    }
  };
  scen::register_platform_family(std::make_shared<FixedIterations>("scen-test-plat", 1));

  api::Options options;
  options.slot_cap = 200'000;
  api::Session session(options);
  const scen::ScenarioSpace space{.platform = "scen-test-plat"};
  platform::ScenarioParams params;
  params.seed = 9;
  const auto before = session.run_trial(space, params, "IE", 0);
  ASSERT_TRUE(before.success);
  EXPECT_EQ(before.iterations_completed, 1);

  scen::register_platform_family(std::make_shared<FixedIterations>("scen-test-plat", 2));
  const auto after = session.run_trial(space, params, "IE", 0);
  ASSERT_TRUE(after.success);
  EXPECT_EQ(after.iterations_completed, 2);
}

TEST(Space, FamiliesActuallyChangeOutcomes) {
  // Sanity: the worlds are genuinely different — at least one (heuristic,
  // scenario, trial) outcome differs between the markov and weibull spaces.
  auto spec = tiny_spec();
  api::AggregateSink markov_sink;
  api::Session().run(spec, {&markov_sink});
  spec.scenario_space.availability = "weibull";
  api::AggregateSink weibull_sink;
  api::Session().run(spec, {&weibull_sink});
  bool any_diff = false;
  const auto& a = markov_sink.results().outcomes;
  const auto& b = weibull_sink.results().outcomes;
  for (std::size_t h = 0; h < a.size(); ++h) {
    for (std::size_t sc = 0; sc < a[h].size(); ++sc) {
      for (std::size_t t = 0; t < a[h][sc].size(); ++t) {
        any_diff |= a[h][sc][t].makespan != b[h][sc][t].makespan;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

// ------------------------------------------------------------ §VII-B fit ----

TEST(Fit, FitMarkovPlatformRecoversMarkovTruth) {
  // Fitting a Markov model to a trace that IS Markov must approximately
  // recover the chain (long trace, loose tolerance).
  const auto plat = small_platform(3, 8);
  const auto fitted = scen::fit_markov_platform(
      plat, *scen::availability_family("markov"), 60'000, 99);
  ASSERT_EQ(fitted.size(), plat.size());
  for (int q = 0; q < plat.size(); ++q) {
    EXPECT_EQ(fitted.proc(q).speed, plat.proc(q).speed);
    EXPECT_NEAR(fitted.proc(q).availability.prob(State::Up, State::Up),
                plat.proc(q).availability.prob(State::Up, State::Up), 0.05);
  }
}

TEST(Fit, FittedWeibullPlatformIsUsableByEstimator) {
  const auto plat = small_platform(4, 12);
  const auto fitted = scen::fit_markov_platform(
      plat, *scen::availability_family("weibull"), 20'000, 7);
  // The fitted chains must be valid transition matrices an estimator can
  // consume (rows stochastic is enforced by TransitionMatrix's ctor).
  platform::ScenarioParams params;
  params.p = 4;
  model::Application app;
  app.num_tasks = 5;
  app.t_data = 1;
  app.t_prog = 5;
  app.iterations = 2;
  sched::Estimator est(fitted, app, 1e-6);
  std::vector<int> set{0, 1};
  std::vector<sched::Estimator::CommNeed> needs{{0, 6}, {1, 6}};
  const auto e = est.evaluate(needs, set, 10);
  EXPECT_GT(e.p_success, 0.0);
  EXPECT_LE(e.p_success, 1.0);
}

TEST(Fit, RejectsDegenerateTraining) {
  const auto plat = small_platform(3);
  EXPECT_THROW((void)scen::fit_markov_platform(
                   plat, *scen::availability_family("markov"), 1, 0),
               std::invalid_argument);
}

// ------------------------------------------- event-horizon fast-forward ----

void expect_identical_results(const sim::SimulationResult& a,
                              const sim::SimulationResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
  EXPECT_EQ(a.total_reconfigurations, b.total_reconfigurations);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const auto& x = a.iterations[i];
    const auto& y = b.iterations[i];
    EXPECT_EQ(x.start_slot, y.start_slot) << "iteration " << i;
    EXPECT_EQ(x.end_slot, y.end_slot) << "iteration " << i;
    EXPECT_EQ(x.comm_slots, y.comm_slots) << "iteration " << i;
    EXPECT_EQ(x.stalled_slots, y.stalled_slots) << "iteration " << i;
    EXPECT_EQ(x.compute_slots, y.compute_slots) << "iteration " << i;
    EXPECT_EQ(x.suspended_slots, y.suspended_slots) << "iteration " << i;
    EXPECT_EQ(x.restarts, y.restarts) << "iteration " << i;
    EXPECT_EQ(x.reconfigurations, y.reconfigurations) << "iteration " << i;
  }
}

void expect_identical_traces(const sim::ActivityTrace& a, const sim::ActivityTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size());
    for (std::size_t q = 0; q < a[t].size(); ++q) {
      ASSERT_TRUE(a[t][q].state == b[t][q].state && a[t][q].action == b[t][q].action)
          << "slot " << t << " proc " << q;
    }
  }
}

/// Every slot of a run is exactly one of: idle (no configuration), comm,
/// stalled (comm phase frozen by RECLAIMED workers), compute, or suspended.
/// On success the completed iterations tile [0, makespan), so the counters
/// must reconcile with the makespan exactly (DESIGN.md §8).
void expect_slot_accounting(const sim::SimulationResult& r) {
  long accounted = r.idle_slots;
  long prev_end = -1;
  for (const auto& it : r.iterations) {
    // Iterations tile the timeline; a span holds its comm/stalled/compute/
    // suspended slots (plus globally-counted idle slots before its first
    // configuration).
    EXPECT_EQ(it.start_slot, prev_end + 1);
    const long span = it.end_slot - it.start_slot + 1;
    const long busy =
        it.comm_slots + it.stalled_slots + it.compute_slots + it.suspended_slots;
    EXPECT_LE(busy, span);
    prev_end = it.end_slot;
    accounted += busy;
  }
  if (r.success) {
    EXPECT_EQ(accounted, r.makespan);
  } else {
    EXPECT_LE(accounted, r.makespan);  // trailing unfinished iteration
  }
}

// The §8 contract: EngineOptions::fast_forward must be invisible in the
// results — every counter, per-iteration stat AND the activity trace — for
// every registered heuristic (the paper's 17 plus the extension baselines)
// across every built-in availability family. This is the equality proof the
// quiescence reports are held to; a scheduler misreporting its stability
// fails here. Doubles as the slot-accounting test.
TEST(FastForward, BitIdenticalForEveryHeuristicAndFamily) {
  std::vector<std::string> heuristics = sched::all_heuristic_names();
  for (const auto& n : sched::extension_heuristic_names()) heuristics.push_back(n);

  platform::ScenarioParams params;
  params.m = 5;
  params.ncom = 5;
  params.wmin = 2;
  params.seed = 33;

  for (const char* family : {"markov", "weibull", "daynight"}) {
    const scen::ScenarioSpace space{.availability = family};
    api::Options on;
    on.slot_cap = 50'000;
    on.fast_forward = true;
    api::Options off = on;
    off.fast_forward = false;
    api::Session fast(on);
    api::Session slow(off);

    for (const auto& heuristic : heuristics) {
      SCOPED_TRACE(std::string(family) + " / " + heuristic);
      sim::ActivityTrace trace_on;
      sim::ActivityTrace trace_off;
      const auto a = fast.run_trial(space, params, heuristic, 0, &trace_on);
      const auto b = slow.run_trial(space, params, heuristic, 0, &trace_off);
      expect_identical_results(a, b);
      expect_identical_traces(trace_on, trace_off);
      expect_slot_accounting(a);
    }
  }
}

// The tracing-off path takes additional fast-forward shortcuts (bulk comm
// runs are disabled under tracing); prove the counters still match the
// per-slot reference without traces in the picture.
TEST(FastForward, UntracedRunsMatchPerSlotReference) {
  platform::ScenarioParams params;
  params.m = 5;
  params.ncom = 5;
  params.wmin = 3;
  params.seed = 77;

  for (const char* family : {"markov", "weibull", "daynight"}) {
    const scen::ScenarioSpace space{.availability = family};
    api::Options on;
    on.slot_cap = 50'000;
    api::Options off = on;
    off.fast_forward = false;
    api::Session fast(on);
    api::Session slow(off);
    for (const char* heuristic : {"IE", "IAY", "RANDOM", "Y-IE", "E-IAY", "P-IE"}) {
      for (int trial = 0; trial < 3; ++trial) {
        SCOPED_TRACE(std::string(family) + " / " + heuristic + " / trial " +
                     std::to_string(trial));
        const auto a = fast.run_trial(space, params, heuristic, trial);
        const auto b = slow.run_trial(space, params, heuristic, trial);
        expect_identical_results(a, b);
        expect_slot_accounting(a);
      }
    }
  }
}

}  // namespace
}  // namespace tcgrid
