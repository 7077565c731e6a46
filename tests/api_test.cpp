// Tests of the tcgrid::api experiment facade: paired-trial equivalence with
// hand-wired Engine setup, streaming-sink correctness (CSV/JSONL round
// trips), up-front validation, and the thread-safety contract of sinks and
// progress callbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "manual_run.hpp"
#include "sched/estimator.hpp"
#include "util/rng.hpp"

namespace tcgrid::api {
namespace {

platform::ScenarioParams mini_params(std::uint64_t seed = 12) {
  platform::ScenarioParams params;
  params.m = 5;
  params.ncom = 5;
  params.wmin = 1;
  params.seed = seed;
  params.iterations = 3;
  return params;
}

ExperimentSpec mini_spec() {
  ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1};
  spec.grid.scenarios_per_cell = 2;
  spec.grid.iterations = 3;
  spec.trials = 2;
  spec.heuristics = {"RANDOM", "IE", "Y-IE"};
  spec.options.slot_cap = 100'000;
  spec.options.threads = 1;
  return spec;
}

void expect_identical(const sim::SimulationResult& a, const sim::SimulationResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
  EXPECT_EQ(a.total_reconfigurations, b.total_reconfigurations);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].start_slot, b.iterations[i].start_slot);
    EXPECT_EQ(a.iterations[i].end_slot, b.iterations[i].end_slot);
    EXPECT_EQ(a.iterations[i].comm_slots, b.iterations[i].comm_slots);
    EXPECT_EQ(a.iterations[i].compute_slots, b.iterations[i].compute_slots);
    EXPECT_EQ(a.iterations[i].suspended_slots, b.iterations[i].suspended_slots);
    EXPECT_EQ(a.iterations[i].restarts, b.iterations[i].restarts);
    EXPECT_EQ(a.iterations[i].reconfigurations, b.iterations[i].reconfigurations);
  }
}

// ---------------------------------------------------------- equivalence ----

// The facade must reproduce, byte for byte, what the manual wiring of
// examples/quickstart.cpp (pre-facade) produced: scenario -> estimator ->
// make_scheduler -> MarkovAvailability -> Engine.
TEST(Session, TrialMatchesManualEngineWiring) {
  const auto params = mini_params(7);
  const auto scenario = platform::make_scenario(params);
  sched::Estimator estimator(scenario.platform, scenario.app, 1e-6);

  Options options;
  options.slot_cap = 100'000;
  Session session(options);

  for (const char* name : {"RANDOM", "IE", "Y-IE", "P-IE"}) {
    for (int trial = 0; trial < 2; ++trial) {
      const sim::SimulationResult manual =
          manual_run(scenario, estimator, name, trial, options.slot_cap);
      const sim::SimulationResult facade = session.run_trial(params, name, trial);
      SCOPED_TRACE(std::string(name) + " trial " + std::to_string(trial));
      expect_identical(manual, facade);
    }
  }
}

// Session::run must match the manual wiring per (scenario, heuristic,
// trial), with one estimator per scenario, exactly.
TEST(Session, RunMatchesLegacyTrialLoop) {
  const auto spec = mini_spec();
  AggregateSink aggregate;
  Session().run(spec, {&aggregate});
  const auto& results = aggregate.results();

  const auto scenarios = spec.scenarios();
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    const auto scenario = platform::make_scenario(scenarios[sc]);
    sched::Estimator estimator(scenario.platform, scenario.app, spec.options.eps);
    for (std::size_t h = 0; h < spec.heuristics.size(); ++h) {
      for (int trial = 0; trial < spec.trials; ++trial) {
        const auto manual = manual_run(scenario, estimator, spec.heuristics[h], trial,
                                       spec.options.slot_cap);
        const auto& got = results.outcomes[h][sc][static_cast<std::size_t>(trial)];
        EXPECT_EQ(got.success, manual.success);
        EXPECT_EQ(got.makespan, manual.makespan);
      }
    }
  }
}

TEST(Session, ThreadCountDoesNotChangeResults) {
  auto spec = mini_spec();
  AggregateSink a1;
  Session().run(spec, {&a1});
  spec.options.threads = 4;
  AggregateSink a4;
  Session().run(spec, {&a4});
  const auto& r1 = a1.results();
  const auto& r4 = a4.results();
  for (std::size_t h = 0; h < r1.outcomes.size(); ++h) {
    for (std::size_t sc = 0; sc < r1.outcomes[h].size(); ++sc) {
      for (std::size_t t = 0; t < r1.outcomes[h][sc].size(); ++t) {
        EXPECT_EQ(r1.outcomes[h][sc][t].makespan, r4.outcomes[h][sc][t].makespan);
      }
    }
  }
}

TEST(Session, ProgressCallbackReachesTotal) {
  std::size_t last = 0, total = 0, calls = 0;
  AggregateSink aggregate;
  Session().run(mini_spec(), {&aggregate}, [&](std::size_t done, std::size_t n) {
    last = std::max(last, done);
    total = n;
    ++calls;
  });
  // One tick per (scenario, trial) unit: 2 scenarios x 2 trials.
  EXPECT_EQ(last, 4u);
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(calls, 4u);
}

// The §2.2 pairing: streams 1000 + t (availability) and 2000 + t (scheduler)
// of the scenario seed. perfbench/layers.cpp restates this derivation, so
// pinning it here also guards that copy.
TEST(Session, TrialSeedsAreThePairedStreams) {
  for (const std::uint64_t seed : {0ull, 12ull, 0x9E3779B97F4A7C15ull}) {
    platform::ScenarioParams params;
    params.seed = seed;
    for (int t = 0; t < 4; ++t) {
      const auto u = static_cast<std::uint64_t>(t);
      EXPECT_EQ(trial_seed(params, t), util::derive_seed(seed, 1000 + u));
      EXPECT_EQ(scheduler_seed(params, t), util::derive_seed(seed, 2000 + u));
    }
    EXPECT_NE(trial_seed(params, 3), trial_seed(params, 4));
    EXPECT_NE(trial_seed(params, 3), scheduler_seed(params, 3));
  }
}

// Estimator reuse across trials/heuristics (the cache-warmth rule) must not
// change decisions: a fresh session gives the same answer as a warmed one.
TEST(Session, EstimatorCacheDoesNotChangeDecisions) {
  const auto params = mini_params(31);
  Options options;
  options.slot_cap = 100'000;

  Session warm(options);
  (void)warm.run_trial(params, "IE", 0);      // warm the caches
  (void)warm.run_trial(params, "Y-IE", 0);
  const auto warmed = warm.run_trial(params, "Y-IE", 1);

  Session cold(options);
  const auto fresh = cold.run_trial(params, "Y-IE", 1);
  expect_identical(warmed, fresh);
}

// ---------------------------------------------------------------- sinks ----

TEST(Sinks, AggregateShapes) {
  const auto spec = mini_spec();
  AggregateSink aggregate;
  const auto stats = Session().run(spec, {&aggregate});
  EXPECT_EQ(stats.scenarios, 2u);
  EXPECT_EQ(stats.rows, 3u * 2u * 2u);
  const auto& r = aggregate.results();
  ASSERT_EQ(r.heuristics.size(), 3u);
  ASSERT_EQ(r.scenarios.size(), 2u);
  ASSERT_EQ(r.outcomes.size(), 3u);
  ASSERT_EQ(r.outcomes[0].size(), 2u);
  ASSERT_EQ(r.outcomes[0][0].size(), 2u);
  for (const auto& per_scenario : r.outcomes) {
    for (const auto& trials : per_scenario) {
      for (const auto& outcome : trials) EXPECT_GT(outcome.makespan, 0);
    }
  }
}

TEST(Sinks, CsvRoundTrip) {
  const auto spec = mini_spec();
  std::ostringstream out;
  CsvSink csv(out);
  AggregateSink aggregate;
  Session().run(spec, {&csv, &aggregate});

  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "heuristic,family,m,ncom,wmin,scenario_seed,trial,success,makespan,"
            "restarts,reconfigs,idle_slots");

  const auto& r = aggregate.results();
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::istringstream fs(line);
    std::string field;
    while (std::getline(fs, field, ',')) fields.push_back(field);
    ASSERT_EQ(fields.size(), 12u) << line;
    const int h = r.heuristic_index(fields[0]);
    ASSERT_GE(h, 0);
    EXPECT_EQ(fields[1], "markov") << line;  // the default scenario space
    // Locate the scenario by its seed and check the streamed makespan
    // against the aggregated tensor.
    int sc = -1;
    for (std::size_t i = 0; i < r.scenarios.size(); ++i) {
      if (std::to_string(r.scenarios[i].seed) == fields[5]) sc = static_cast<int>(i);
    }
    ASSERT_GE(sc, 0) << line;
    const int trial = std::stoi(fields[6]);
    const auto& outcome = r.outcomes[static_cast<std::size_t>(h)]
                                    [static_cast<std::size_t>(sc)]
                                    [static_cast<std::size_t>(trial)];
    EXPECT_EQ(std::to_string(outcome.makespan), fields[8]) << line;
    EXPECT_EQ(outcome.success ? "1" : "0", fields[7]) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 3u * 2u * 2u);
}

TEST(Sinks, JsonlRoundTrip) {
  // JsonlSink writes exactly row_line — the serve checkpoint and wire
  // format — for every row, in consume order.
  struct RowLines final : ResultSink {
    std::vector<std::string> lines;
    void consume(const ResultRow& row) override {
      lines.push_back(row_line(row.scenario, row.trial, row.heuristic, *row.name,
                               *row.family, *row.params, *row.result));
    }
  };
  const auto spec = mini_spec();
  std::ostringstream out;
  JsonlSink jsonl(out);
  AggregateSink aggregate;
  RowLines expected;
  Session().run(spec, {&jsonl, &aggregate, &expected});

  const auto& r = aggregate.results();
  std::istringstream in(out.str());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(rows, expected.lines.size());
    EXPECT_EQ(line, expected.lines[rows]);
    ++rows;
  }
  EXPECT_EQ(rows, 3u * 2u * 2u);
  EXPECT_EQ(rows, expected.lines.size());
  // Spot-check one value end-to-end: IE is heuristic 1.
  const std::string spot = "{\"scenario\":0,\"trial\":0,\"h\":1,\"heuristic\":\"IE\","
                           "\"family\":\"markov\",\"m\":5,\"ncom\":5,\"wmin\":1,"
                           "\"scenario_seed\":" +
                           std::to_string(r.scenarios[0].seed) + ",\"success\":";
  EXPECT_NE(out.str().find(spot), std::string::npos);
}

TEST(Sinks, MultipleSinksSeeEveryRowOnce) {
  struct CountingSink final : ResultSink {
    std::set<std::tuple<std::size_t, std::size_t, int>> seen;
    std::size_t begins = 0, finishes = 0;
    bool in_consume = false;
    void begin(const ExperimentSpec&, const std::vector<platform::ScenarioParams>&,
               const std::vector<std::string>&) override {
      ++begins;
    }
    void consume(const ResultRow& row) override {
      // The serialization contract: never two concurrent consume calls.
      ASSERT_FALSE(in_consume);
      in_consume = true;
      EXPECT_TRUE(seen.emplace(row.heuristic, row.scenario, row.trial).second);
      in_consume = false;
    }
    void finish() override { ++finishes; }
  };

  auto spec = mini_spec();
  spec.options.threads = 4;  // exercise the worker-thread path
  CountingSink s1, s2;
  Session().run(spec, {&s1, &s2});
  for (const auto* s : {&s1, &s2}) {
    EXPECT_EQ(s->begins, 1u);
    EXPECT_EQ(s->finishes, 1u);
    EXPECT_EQ(s->seen.size(), 3u * 2u * 2u);
  }
}

// RFC-4180 parse of one CSV record (quotes, embedded commas/newlines).
std::vector<std::string> parse_csv_record(const std::string& text, std::size_t& pos) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  while (pos < text.size()) {
    const char c = text[pos];
    if (quoted) {
      if (c == '"' && pos + 1 < text.size() && text[pos + 1] == '"') {
        field += '"';
        ++pos;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      ++pos;
      fields.push_back(std::move(field));
      return fields;
    } else {
      field += c;
    }
    ++pos;
  }
  fields.push_back(std::move(field));
  return fields;
}

TEST(Sinks, HostileRegistryNamesRoundTripThroughCsvAndJsonl) {
  // Family names are caller-chosen; commas, quotes and newlines must
  // round-trip through the CSV sink and keep the JSONL stream one object
  // per line.
  const std::string evil = "evil \"family\", v1\nline2";
  auto timeline = std::make_shared<platform::StateTimeline>();
  timeline->assign(4, std::vector<markov::State>(20, markov::State::Up));
  scen::register_availability_family(scen::make_trace_family(evil, {timeline}));

  auto spec = mini_spec();
  spec.heuristics = {"IE"};
  spec.grid.scenarios_per_cell = 1;
  spec.trials = 1;
  spec.scenario_space.availability = evil;

  std::ostringstream csv, jsonl;
  CsvSink csv_sink(csv);
  JsonlSink jsonl_sink(jsonl);
  Session().run(spec, {&csv_sink, &jsonl_sink});

  std::size_t pos = 0;
  const std::string text = csv.str();
  const auto header = parse_csv_record(text, pos);
  ASSERT_EQ(header.size(), 12u);
  const auto row = parse_csv_record(text, pos);
  ASSERT_EQ(row.size(), 12u);
  EXPECT_EQ(row[0], "IE");
  EXPECT_EQ(row[1], evil);  // exact round-trip, newline and quotes included

  // JSONL: exactly one (logical) line, with the newline escaped inside the
  // JSON string rather than splitting the record.
  const std::string jl = jsonl.str();
  ASSERT_FALSE(jl.empty());
  EXPECT_EQ(std::count(jl.begin(), jl.end(), '\n'), 1);
  EXPECT_NE(jl.find(R"(\nline2)"), std::string::npos);
  EXPECT_NE(jl.find(R"(evil \"family\")"), std::string::npos);
}

TEST(Sinks, FileSinkOpenFailureThrows) {
  // A sweep must not run for hours into a sink that silently discards rows.
  EXPECT_THROW(CsvSink("/nonexistent-dir/out.csv"), std::runtime_error);
  EXPECT_THROW(JsonlSink("/nonexistent-dir/out.jsonl"), std::runtime_error);
}

// ----------------------------------------------------------- validation ----

TEST(Validation, UnknownHeuristicFailsUpFront) {
  struct NeverSink final : ResultSink {
    bool touched = false;
    void begin(const ExperimentSpec&, const std::vector<platform::ScenarioParams>&,
               const std::vector<std::string>&) override {
      touched = true;
    }
    void consume(const ResultRow&) override { touched = true; }
  };

  auto spec = mini_spec();
  spec.heuristics = {"IE", "NOT-A-HEURISTIC"};
  NeverSink sink;
  Session session;
  EXPECT_THROW(session.run(spec, {&sink}), std::invalid_argument);
  EXPECT_FALSE(sink.touched);  // validation precedes any sink/simulation work
}

TEST(Validation, SpecFieldChecks) {
  auto spec = mini_spec();
  spec.trials = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = mini_spec();
  spec.grid.wmins.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = mini_spec();
  spec.options.slot_cap = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = mini_spec();
  spec.options.eps = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = mini_spec();
  spec.options.avail_block = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // Scenario parameters the constructors reject, per explicit scenario and
  // in the grid.
  const platform::ScenarioParams ok = mini_params();
  std::vector<platform::ScenarioParams> bad(5, ok);
  bad[0].m = 0;
  bad[1].ncom = 0;
  bad[2].wmin = 0;
  bad[3].iterations = 0;
  bad[4].p = 65;
  for (const platform::ScenarioParams& params : bad) {
    spec = mini_spec();
    spec.explicit_scenarios = {ok, params};
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
  spec = mini_spec();
  spec.grid.ncoms = {5, 0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = mini_spec();
  spec.grid.iterations = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  EXPECT_NO_THROW(mini_spec().validate());
}

TEST(Validation, UnbuildableScenarioThrowsFromRunInsteadOfAborting) {
  // These used to pass validate() and then throw inside a pool worker,
  // which terminates the process. run() must reject them up front.
  ExperimentSpec spec = ExperimentSpec::reduced(5, 2000);
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1};
  spec.heuristics = {"IE"};
  spec.options.threads = 2;
  AggregateSink sink;
  Session session(spec.options);

  ExperimentSpec wide = spec;
  wide.grid.p = 65;  // past the estimator's 64-processor bitmask
  EXPECT_THROW(session.run(wide, {&sink}), std::invalid_argument);

  ExperimentSpec empty = spec;
  platform::ScenarioParams params;
  params.p = 0;
  empty.explicit_scenarios = {params};
  EXPECT_THROW(session.run(empty, {&sink}), std::invalid_argument);

  EXPECT_EQ(session.run(spec, {&sink}).rows, 4u);  // the spec itself is fine
}

TEST(Validation, RunTrialRejectsUnknownName) {
  Session session;
  EXPECT_THROW((void)session.run_trial(mini_params(), "nope", 0),
               std::invalid_argument);
}

TEST(OptionsMapping, FastForwardThreadsThroughToTheEngine) {
  // api::Options::fast_forward must reach sim::EngineOptions (default ON),
  // and toggling it through a Session must not change any outcome — the
  // event-horizon loop is bit-identical to the per-slot loop by contract.
  Options options;
  EXPECT_TRUE(options.engine().fast_forward);
  options.fast_forward = false;
  EXPECT_FALSE(options.engine().fast_forward);

  Options on;
  on.slot_cap = 100'000;
  Options off = on;
  off.fast_forward = false;
  Session fast(on);
  Session slow(off);
  const auto params = mini_params(3);
  for (const char* name : {"IE", "Y-IE", "RANDOM"}) {
    for (int trial = 0; trial < 2; ++trial) {
      SCOPED_TRACE(std::string(name) + " trial " + std::to_string(trial));
      expect_identical(fast.run_trial(params, name, trial),
                       slow.run_trial(params, name, trial));
    }
  }
}

// ----------------------------------------------------- spec resolution ----

TEST(Spec, ExplicitScenariosReplaceGrid) {
  ExperimentSpec spec;
  spec.explicit_scenarios = {mini_params(1), mini_params(2), mini_params(3)};
  EXPECT_EQ(spec.scenarios().size(), 3u);
  EXPECT_EQ(spec.scenarios()[1].seed, 2u);
}

TEST(Spec, DefaultHeuristicsAreThePapers17) {
  ExperimentSpec spec;
  EXPECT_EQ(spec.resolved_heuristics().size(), 17u);
}

TEST(Session, CooperativeStopReturnsPartialStats) {
  const ExperimentSpec spec = mini_spec();  // 2 scenarios x 2 trials = 4 units

  // Stop already set: no unit starts, but the run still finishes cleanly
  // (sinks flushed, counts consistent).
  {
    Session session(spec.options);
    AggregateSink agg;
    std::atomic<bool> stop{true};
    const auto stats = session.run(spec, {&agg}, nullptr, &stop);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.units_total, 4u);
    EXPECT_EQ(stats.units_done, 0u);
    EXPECT_EQ(stats.rows, 0u);
  }

  // Stop raised from the progress callback after the first completed unit:
  // the flag is honored at unit boundaries, so completed units are whole
  // (rows a multiple of the heuristic count) and pending units are skipped.
  {
    Session session(spec.options);
    AggregateSink agg;
    std::atomic<bool> stop{false};
    const auto stats = session.run(
        spec, {&agg}, [&](std::size_t done, std::size_t) { if (done >= 1) stop = true; },
        &stop);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_GE(stats.units_done, 1u);
    EXPECT_LT(stats.units_done, 4u);
    EXPECT_EQ(stats.rows, stats.units_done * spec.heuristics.size());
  }

  // Null stop (the default) is the uncancelled sweep.
  {
    Session session(spec.options);
    AggregateSink agg;
    const auto stats = session.run(spec, {&agg});
    EXPECT_FALSE(stats.cancelled);
    EXPECT_EQ(stats.units_done, 4u);
    EXPECT_EQ(stats.rows, 4u * spec.heuristics.size());
  }
}

TEST(Spec, GridSeedsNeverCollideAcrossCells) {
  // Regression guard for the additive-derivation collision: with more than
  // 1000 scenarios per cell, the old scheme reused cell c's seed 1000 as
  // cell c+1's seed 0. Every (cell, s) must now get a unique seed.
  ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5, 10};
  spec.grid.wmins = {1, 2};
  spec.grid.scenarios_per_cell = 1500;
  const auto scenarios = spec.scenarios();
  ASSERT_EQ(scenarios.size(), 4u * 1500u);
  std::set<std::uint64_t> seeds;
  for (const auto& s : scenarios) seeds.insert(s.seed);
  EXPECT_EQ(seeds.size(), scenarios.size());
}

}  // namespace
}  // namespace tcgrid::api
