// Tests of materialized availability realizations (DESIGN.md §9):
//
//   * platform::Realization expands rows bit-identical to live fill_block
//     generation for every registered availability family, and its digest
//     bitsets match the engine's per-block digest definitions;
//   * RealizationView is a faithful AvailabilitySource (per-slot == block
//     pulls == the live source), and position() tracks consumption on every
//     source;
//   * the engine's replay path — window refills AND the change-to-change
//     jump loops — is bit-identical to live generation for every heuristic
//     across families, traces included;
//   * the byte budget throws, and api::Session falls back to live
//     generation with identical sweep results (shared / tiny-budget /
//     disabled all agree);
//   * trial-major Session::run: per-unit progress, contiguous per-unit row
//     groups, and clear_caches() releasing per-thread estimator entries.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "platform/realization.hpp"
#include "platform/scenario.hpp"
#include "platform/semi_markov.hpp"
#include "scen/scen.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tcgrid {
namespace {

using platform::Realization;
using platform::RealizationView;
using State = markov::State;

platform::Scenario test_scenario(std::uint64_t seed = 33, int m = 5, long wmin = 2) {
  platform::ScenarioParams params;
  params.m = m;
  params.ncom = 5;
  params.wmin = wmin;
  params.seed = seed;
  return platform::make_scenario(params);
}

/// Families exercised everywhere below. "rzn-trace" is registered on first
/// use (trace families need a concrete timeline).
const std::vector<std::string>& families() {
  static const std::vector<std::string> names = [] {
    const auto scenario = test_scenario(99);
    auto src = scen::availability_family("markov")->make_source(
        scenario.platform, 4242, platform::InitialStates::Stationary);
    auto timeline =
        std::make_shared<platform::StateTimeline>(platform::record(*src, 400));
    scen::register_availability_family(scen::make_trace_family(
        "rzn-trace", scen::TraceFamilyParams{.timeline = std::move(timeline)}));
    return std::vector<std::string>{"markov", "weibull", "daynight", "rzn-trace"};
  }();
  return names;
}

std::unique_ptr<platform::AvailabilitySource> make_source(const std::string& family,
                                                          const platform::Platform& p,
                                                          std::uint64_t seed) {
  return scen::availability_family(family)->make_source(
      p, seed, platform::InitialStates::Stationary);
}

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

// ---------------------------------------------------------------- sources ----

TEST(Position, TracksAdvanceAndFillBlock) {
  const auto scenario = test_scenario();
  for (const auto& family : families()) {
    SCOPED_TRACE(family);
    auto src = make_source(family, scenario.platform, 7);
    EXPECT_EQ(src->position(), 0);
    src->advance();
    src->advance();
    EXPECT_EQ(src->position(), 2);
    std::vector<State> buf(static_cast<std::size_t>(src->size()) * 10);
    src->fill_block(buf.data(), 10);
    EXPECT_EQ(src->position(), 12);
  }
  platform::FixedAvailability fixed({{State::Up, State::Down}});
  EXPECT_EQ(fixed.position(), 0);
  fixed.advance();
  EXPECT_EQ(fixed.position(), 1);
}

// ------------------------------------------------------------- realization ----

TEST(Realization, ExpandsRowsBitIdenticalToLiveGeneration) {
  const auto scenario = test_scenario();
  const auto p = static_cast<std::size_t>(scenario.platform.size());
  constexpr long kSlots = 1500;
  for (const auto& family : families()) {
    SCOPED_TRACE(family);
    // Live reference: one fill_block pull of the whole range.
    std::vector<State> live(p * kSlots);
    make_source(family, scenario.platform, 11)->fill_block(live.data(), kSlots);

    Realization real(make_source(family, scenario.platform, 11));
    real.ensure(kSlots);
    EXPECT_GE(real.frontier(), kSlots);
    EXPECT_GT(real.bytes(), 0u);

    // Expand in deliberately awkward chunks (and re-expand from the start:
    // replays rewind).
    for (const long chunk : {1L, 7L, 64L, kSlots}) {
      std::vector<State> got(p * kSlots);
      for (long t = 0; t < kSlots; t += chunk) {
        const long hi = std::min(kSlots, t + chunk);
        real.expand_rows(t, hi, got.data() + static_cast<std::size_t>(t) * p);
      }
      ASSERT_EQ(got, live) << "chunk " << chunk;
    }
  }
}

TEST(Realization, DigestsMatchEngineDefinitions) {
  const auto scenario = test_scenario();
  const auto p = static_cast<std::size_t>(scenario.platform.size());
  constexpr long kSlots = 1200;
  for (const auto& family : families()) {
    SCOPED_TRACE(family);
    Realization real(make_source(family, scenario.platform, 13));
    real.ensure(kSlots);
    std::vector<State> rows(p * kSlots);
    real.expand_rows(0, kSlots, rows.data());

    std::vector<unsigned char> chg(kSlots), gain(kSlots), ndown(kSlots);
    real.copy_digests(0, kSlots, chg.data(), gain.data(), ndown.data());

    auto is_up = [](State s) { return s == State::Up; };
    for (long t = 0; t < kSlots; ++t) {
      bool r_chg = true, r_gain = true, r_ndown = true;  // slot 0: conservative
      if (t > 0) {
        r_chg = r_gain = r_ndown = false;
        const State* prev = rows.data() + static_cast<std::size_t>(t - 1) * p;
        const State* row = rows.data() + static_cast<std::size_t>(t) * p;
        for (std::size_t q = 0; q < p; ++q) {
          r_chg |= is_up(prev[q]) != is_up(row[q]);
          r_gain |= !is_up(prev[q]) && is_up(row[q]);
          r_ndown |= row[q] == State::Down && prev[q] != State::Down;
        }
      }
      ASSERT_EQ(static_cast<bool>(chg[t]), r_chg) << "slot " << t;
      ASSERT_EQ(static_cast<bool>(gain[t]), r_gain) << "slot " << t;
      ASSERT_EQ(static_cast<bool>(ndown[t]), r_ndown) << "slot " << t;
      ASSERT_EQ(real.up_changed_at(t), r_chg) << "slot " << t;
      ASSERT_EQ(real.up_gain_at(t), r_gain) << "slot " << t;
      ASSERT_EQ(real.new_down_at(t), r_ndown) << "slot " << t;
    }
  }
}

TEST(Realization, NextChangeMatchesNaiveScan) {
  const auto scenario = test_scenario();
  constexpr long kSlots = 900;
  Realization real(make_source("markov", scenario.platform, 17));
  real.ensure(kSlots);
  auto naive = [&](long from, long limit) {
    for (long t = from; t < limit; ++t) {
      if (real.up_changed_at(t) || real.new_down_at(t)) return t;
    }
    return limit;
  };
  for (long from : {0L, 1L, 63L, 64L, 65L, 130L, 500L, 897L}) {
    for (long limit : {from, from + 1, from + 50, from + 200, kSlots}) {
      if (limit < from || limit > kSlots) continue;
      EXPECT_EQ(real.next_change(from, limit), naive(from, limit))
          << "from " << from << " limit " << limit;
    }
  }
  // next_change extends the frontier on demand: scanning from the frontier
  // itself must materialize at least one more chunk.
  const long old_frontier = real.frontier();
  const long next = real.next_change(old_frontier, old_frontier + 100);
  EXPECT_GT(real.frontier(), old_frontier);
  EXPECT_GE(next, old_frontier);
  EXPECT_LE(next, old_frontier + 100);
}

TEST(Realization, ViewIsAFaithfulSource) {
  const auto scenario = test_scenario();
  const auto p = static_cast<std::size_t>(scenario.platform.size());
  constexpr long kSlots = 600;
  for (const auto& family : families()) {
    SCOPED_TRACE(family);
    auto live = make_source(family, scenario.platform, 19);
    Realization real(make_source(family, scenario.platform, 19));
    RealizationView view(real);
    EXPECT_EQ(view.size(), static_cast<int>(p));

    std::vector<State> live_block(p * 32);
    for (long t = 0; t < kSlots; ++t) {
      if (t % 5 == 0 && t + 32 <= kSlots) {
        // Alternate pull styles mid-stream; the view must not care.
        std::vector<State> view_block(p * 32);
        live->fill_block(live_block.data(), 32);
        view.fill_block(view_block.data(), 32);
        ASSERT_EQ(view_block, live_block) << "slot " << t;
        t += 31;
        continue;
      }
      for (int q = 0; q < static_cast<int>(p); ++q) {
        ASSERT_EQ(view.state(q), live->state(q)) << "slot " << t << " proc " << q;
      }
      live->advance();
      view.advance();
    }
    EXPECT_EQ(view.position(), live->position());
  }
}

TEST(Realization, BudgetOverflowThrows) {
  const auto scenario = test_scenario();
  Realization real(make_source("markov", scenario.platform, 23), 2048);
  EXPECT_THROW(real.ensure(200'000), platform::RealizationBudgetExceeded);
  try {
    Realization again(make_source("markov", scenario.platform, 23), 2048);
    again.ensure(200'000);
  } catch (const platform::RealizationBudgetExceeded& e) {
    EXPECT_GT(e.bytes(), e.budget());
    EXPECT_EQ(e.budget(), 2048u);
  }
}

TEST(Realization, RejectsAdvancedSource) {
  const auto scenario = test_scenario();
  auto src = make_source("markov", scenario.platform, 29);
  src->advance();
  EXPECT_THROW(Realization{std::move(src)}, std::invalid_argument);
}

// ------------------------------------------------------------ engine replay ----

/// Live vs replayed runs for one (scenario, family, heuristic, trial):
/// untraced (exercising the change-to-change jump loops) and traced
/// (exercising the replay window path) — all three bit-identical.
void expect_replay_identical(const platform::Scenario& scenario,
                             const sched::Estimator& estimator,
                             Realization& realization, const std::string& family,
                             const std::string& heuristic, int trial,
                             bool fast_forward = true) {
  api::Options options;
  options.slot_cap = 50'000;
  options.fast_forward = fast_forward;
  const std::uint64_t sched_seed = util::derive_seed(
      scenario.params.seed, 2000 + static_cast<std::uint64_t>(trial));
  const std::uint64_t avail_seed = util::derive_seed(
      scenario.params.seed, 1000 + static_cast<std::uint64_t>(trial));

  auto run = [&](bool replay, bool trace,
                 sim::ActivityTrace* out) -> sim::SimulationResult {
    auto scheduler = sched::make_scheduler(heuristic, estimator, sched_seed);
    const sim::EngineOptions eopts = options.engine(trace);
    sim::SimulationResult r;
    if (replay) {
      sim::Engine engine(scenario.platform, scenario.app, realization, *scheduler,
                         eopts);
      r = engine.run();
      if (out != nullptr) *out = engine.trace();
    } else {
      auto source = make_source(family, scenario.platform, avail_seed);
      sim::Engine engine(scenario.platform, scenario.app, *source, *scheduler, eopts);
      r = engine.run();
      if (out != nullptr) *out = engine.trace();
    }
    return r;
  };

  sim::ActivityTrace live_trace;
  sim::ActivityTrace replay_trace;
  const auto live = run(false, true, &live_trace);
  const auto replay_jump = run(true, false, nullptr);
  const auto replay_window = run(true, true, &replay_trace);
  expect_identical_results(live, replay_jump);
  expect_identical_results(live, replay_window);
  expect_identical_traces(live_trace, replay_trace);
}

TEST(Replay, BitIdenticalForEveryHeuristicAndFamily) {
  std::vector<std::string> heuristics = sched::all_heuristic_names();
  for (const auto& n : sched::extension_heuristic_names()) heuristics.push_back(n);
  const auto scenario = test_scenario();
  const sched::Estimator estimator(scenario.platform, scenario.app, 1e-6);

  for (const auto& family : families()) {
    // ONE realization shared by every heuristic — the trial-major usage.
    Realization realization(make_source(family, scenario.platform,
                                        util::derive_seed(scenario.params.seed, 1000)));
    for (const auto& heuristic : heuristics) {
      SCOPED_TRACE(family + " / " + heuristic);
      expect_replay_identical(scenario, estimator, realization, family, heuristic, 0);
    }
  }
}

TEST(Replay, FrozenRealizationContinuesLiveBitIdentically) {
  // Session freezes a unit's realization when its LAST heuristic starts:
  // the engine replays the materialized prefix, then switches to live
  // continuation on the embedded source. The stream is one unbroken
  // sequence, so results and traces must not move — whether the frontier
  // sits mid-run or at zero (single-heuristic degenerate case).
  const auto scenario = test_scenario();
  const sched::Estimator estimator(scenario.platform, scenario.app, 1e-6);
  api::Options options;
  options.slot_cap = 50'000;
  for (const auto& family : families()) {
    for (const long prefix : {0L, 64L}) {
      SCOPED_TRACE(family + " prefix " + std::to_string(prefix));
      for (const char* heuristic : {"IE", "RANDOM", "Y-IE", "IY"}) {
        SCOPED_TRACE(heuristic);
        const std::uint64_t avail_seed = util::derive_seed(scenario.params.seed, 1000);
        const std::uint64_t sched_seed = util::derive_seed(scenario.params.seed, 2000);

        auto live_sched = sched::make_scheduler(heuristic, estimator, sched_seed);
        auto live_src = make_source(family, scenario.platform, avail_seed);
        sim::Engine live_engine(scenario.platform, scenario.app, *live_src,
                                *live_sched, options.engine(true));
        const auto live = live_engine.run();

        Realization real(make_source(family, scenario.platform, avail_seed));
        if (prefix > 0) real.ensure(prefix);
        real.freeze();
        auto frozen_sched = sched::make_scheduler(heuristic, estimator, sched_seed);
        sim::Engine frozen_engine(scenario.platform, scenario.app, real,
                                  *frozen_sched, options.engine(true));
        const auto frozen = frozen_engine.run();

        expect_identical_results(live, frozen);
        expect_identical_traces(live_engine.trace(), frozen_engine.trace());
      }
    }
  }
}

TEST(Replay, BitIdenticalOnPerSlotEngineLoop) {
  // fast_forward = false replays through the plain window path only.
  const auto scenario = test_scenario(77, 5, 3);
  const sched::Estimator estimator(scenario.platform, scenario.app, 1e-6);
  for (const auto& family : families()) {
    Realization realization(make_source(family, scenario.platform,
                                        util::derive_seed(scenario.params.seed, 1001)));
    for (const char* heuristic : {"IE", "RANDOM", "Y-IE", "E-IAY"}) {
      SCOPED_TRACE(family + std::string(" / ") + heuristic);
      expect_replay_identical(scenario, estimator, realization, family, heuristic, 1,
                              /*fast_forward=*/false);
    }
  }
}

// ------------------------------------------------------------ trial-major api ----

api::ExperimentSpec mini_spec() {
  api::ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1, 2};
  spec.grid.scenarios_per_cell = 2;
  spec.trials = 2;
  spec.grid.iterations = 3;
  spec.heuristics = {"RANDOM", "IE", "Y-IE"};
  spec.options.slot_cap = 100'000;
  spec.options.threads = 2;
  return spec;
}

/// Index-addressed collector of FULL simulation results (AggregateSink only
/// keeps success+makespan; sweep bit-identity must compare every counter).
class CollectSink final : public api::ResultSink {
 public:
  void begin(const api::ExperimentSpec& spec,
             const std::vector<platform::ScenarioParams>& scenarios,
             const std::vector<std::string>& heuristics) override {
    (void)spec;
    scenarios_ = scenarios.size();
    results_.assign(heuristics.size(),
                    std::vector<std::vector<sim::SimulationResult>>(scenarios_));
  }
  void consume(const api::ResultRow& row) override {
    auto& per_scenario = results_[row.heuristic][row.scenario];
    if (per_scenario.size() <= static_cast<std::size_t>(row.trial)) {
      per_scenario.resize(static_cast<std::size_t>(row.trial) + 1);
    }
    per_scenario[static_cast<std::size_t>(row.trial)] = *row.result;
  }
  [[nodiscard]] const std::vector<std::vector<std::vector<sim::SimulationResult>>>&
  results() const {
    return results_;
  }

 private:
  std::size_t scenarios_ = 0;
  std::vector<std::vector<std::vector<sim::SimulationResult>>> results_;
};

std::vector<std::vector<std::vector<sim::SimulationResult>>> sweep_with_budget(
    std::size_t budget) {
  api::ExperimentSpec spec = mini_spec();
  spec.options.realization_budget = budget;
  api::Session session(spec.options);
  CollectSink sink;
  session.run(spec, {&sink});
  return sink.results();
}

TEST(TrialMajor, SharedTinyBudgetAndDisabledSweepsAllIdentical) {
  const auto shared = sweep_with_budget(64u << 20);
  const auto live = sweep_with_budget(0);      // sharing disabled
  const auto tiny = sweep_with_budget(4096);   // every unit overflows mid-run
  ASSERT_EQ(shared.size(), live.size());
  for (std::size_t h = 0; h < shared.size(); ++h) {
    for (std::size_t sc = 0; sc < shared[h].size(); ++sc) {
      ASSERT_EQ(shared[h][sc].size(), 2u);
      for (std::size_t t = 0; t < shared[h][sc].size(); ++t) {
        SCOPED_TRACE("h" + std::to_string(h) + " sc" + std::to_string(sc) + " t" +
                     std::to_string(t));
        expect_identical_results(shared[h][sc][t], live[h][sc][t]);
        expect_identical_results(shared[h][sc][t], tiny[h][sc][t]);
      }
    }
  }
}

/// Checks the documented row-ordering guarantee: each (scenario, trial)
/// unit's rows arrive contiguously, in spec heuristic order.
class GroupingSink final : public api::ResultSink {
 public:
  void begin(const api::ExperimentSpec& spec,
             const std::vector<platform::ScenarioParams>&,
             const std::vector<std::string>& heuristics) override {
    (void)spec;
    h_count_ = heuristics.size();
  }
  void consume(const api::ResultRow& row) override {
    const std::size_t in_group = seen_ % h_count_;
    if (row.heuristic != in_group) ordered_ = false;
    if (in_group == 0) {
      scenario_ = row.scenario;
      trial_ = row.trial;
    } else if (row.scenario != scenario_ || row.trial != trial_) {
      contiguous_ = false;
    }
    ++seen_;
  }
  [[nodiscard]] bool ordered() const { return ordered_; }
  [[nodiscard]] bool contiguous() const { return contiguous_; }
  [[nodiscard]] std::size_t seen() const { return seen_; }

 private:
  std::size_t h_count_ = 1;
  std::size_t seen_ = 0;
  std::size_t scenario_ = 0;
  int trial_ = 0;
  bool ordered_ = true;
  bool contiguous_ = true;
};

TEST(TrialMajor, RowsOfAUnitArriveContiguouslyInHeuristicOrder) {
  const api::ExperimentSpec spec = mini_spec();  // threads = 2: racy unless held
  api::Session session(spec.options);
  GroupingSink sink;
  const auto stats = session.run(spec, {&sink});
  EXPECT_TRUE(sink.ordered());
  EXPECT_TRUE(sink.contiguous());
  EXPECT_EQ(sink.seen(), stats.rows);
  EXPECT_EQ(stats.rows, 4u * 2u * 3u);  // scenarios x trials x heuristics
}

TEST(TrialMajor, ProgressTicksOncePerScenarioTrialUnit) {
  const api::ExperimentSpec spec = mini_spec();
  api::Session session(spec.options);
  api::AggregateSink sink;
  std::size_t calls = 0, last = 0, total = 0;
  session.run(spec, {&sink}, [&](std::size_t done, std::size_t n) {
    ++calls;
    last = std::max(last, done);
    total = n;
  });
  EXPECT_EQ(total, 8u);  // 4 scenarios x 2 trials
  EXPECT_EQ(last, 8u);
  EXPECT_EQ(calls, 8u);
}

TEST(TrialMajor, ClearCachesReleasesPerThreadEstimators) {
  api::ExperimentSpec cell_a = mini_spec();
  cell_a.options.threads = 1;
  api::ExperimentSpec cell_b = cell_a;
  cell_b.grid.wmins = {3, 4};

  api::Session session(cell_a.options);
  api::AggregateSink a1;
  session.run(cell_a, {&a1});
  // One entry per scenario the (single) worker touched.
  EXPECT_EQ(session.cached_entries(), 4u);

  session.clear_caches();
  EXPECT_EQ(session.cached_entries(), 0u);

  // A long sweep over many cells stays bounded when cleared between cells:
  // after clearing, only cell B's scenarios are retained — nothing from A.
  api::AggregateSink b1;
  session.run(cell_b, {&b1});
  EXPECT_EQ(session.cached_entries(), 4u);

  // Chunked dispatch keeps every trial of a scenario on one worker, so even
  // a multi-threaded sweep builds exactly one estimator per scenario (not
  // one per scenario per thread).
  session.clear_caches();
  api::ExperimentSpec mt = cell_a;
  mt.options.threads = 2;
  api::AggregateSink m1;
  session.run(mt, {&m1});
  EXPECT_EQ(session.cached_entries(), 4u);

  // And the session still computes the same results after a clear.
  session.clear_caches();
  api::AggregateSink a2;
  session.run(cell_a, {&a2});
  const auto r1 = std::move(a1).take();
  const auto r2 = std::move(a2).take();
  for (std::size_t h = 0; h < r1.outcomes.size(); ++h) {
    for (std::size_t sc = 0; sc < r1.outcomes[h].size(); ++sc) {
      for (std::size_t t = 0; t < r1.outcomes[h][sc].size(); ++t) {
        EXPECT_EQ(r1.outcomes[h][sc][t].makespan, r2.outcomes[h][sc][t].makespan);
        EXPECT_EQ(r1.outcomes[h][sc][t].success, r2.outcomes[h][sc][t].success);
      }
    }
  }
}

TEST(TrialMajor, RunCustomReportsSourcePosition) {
  const auto scenario = test_scenario();
  api::Options options;
  options.slot_cap = 50'000;
  api::Session session(options);
  const sched::Estimator estimator(scenario.platform, scenario.app, 1e-6);
  auto scheduler = sched::make_scheduler("IE", estimator, 1);
  auto source = make_source("markov", scenario.platform, 5);
  const auto result =
      session.run_custom(scenario.platform, scenario.app, *source, *scheduler);
  // The documented post-run window: past the last simulated slot by less
  // than one prefetch block.
  EXPECT_GE(source->position(), result.makespan);
  EXPECT_LT(source->position(), result.makespan + options.avail_block);
}

}  // namespace
}  // namespace tcgrid
