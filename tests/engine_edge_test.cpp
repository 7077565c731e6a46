// Additional engine edge cases: single-task applications, mu saturation,
// iteration bookkeeping, trace integrity, holdings visibility through the
// SchedulerView, multi-iteration data reset semantics, and the event-horizon
// fast-forward loop (consult skipping, stalled-slot accounting, scripted
// equivalence with the per-slot reference).
#include <gtest/gtest.h>

#include "platform/availability.hpp"
#include "platform/scenario.hpp"
#include "sched/estimator.hpp"
#include "sched/heuristics.hpp"
#include "sim/engine.hpp"

namespace tcgrid {
namespace {

using markov::State;

platform::Platform make_platform(std::vector<long> speeds, int ncom, int mu = 8) {
  std::vector<platform::Processor> procs;
  for (long s : speeds) {
    platform::Processor pr;
    pr.speed = s;
    pr.max_tasks = mu;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
    procs.push_back(pr);
  }
  return platform::Platform(std::move(procs), ncom);
}

class PinScheduler final : public sim::Scheduler {
 public:
  explicit PinScheduler(model::Configuration config) : config_(std::move(config)) {}
  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override {
    last_view_holdings_.assign(view.holdings.begin(), view.holdings.end());
    last_elapsed_ = view.iteration_elapsed;
    last_compute_done_ = view.compute_done;
    if (view.has_config()) return std::nullopt;
    for (const auto& a : config_.assignments()) {
      if (view.states[static_cast<std::size_t>(a.proc)] != State::Up) {
        return std::nullopt;
      }
    }
    return config_;
  }
  [[nodiscard]] std::string_view name() const override { return "pin"; }

  std::vector<model::Holdings> last_view_holdings_;
  long last_elapsed_ = -1;
  long last_compute_done_ = -1;

 private:
  model::Configuration config_;
};

TEST(EngineEdge, SingleTaskSingleWorker) {
  auto plat = make_platform({4}, 1);
  model::Application app;
  app.num_tasks = 1;
  app.t_prog = 1;
  app.t_data = 1;
  app.iterations = 2;
  platform::FixedAvailability avail({{State::Up}});
  PinScheduler sched(model::Configuration({{0, 1}}));
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  // Iter 1: 2 comm + 4 compute = 6; iter 2: 1 comm (program held) + 4 = 5.
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.makespan, 11);
}

TEST(EngineEdge, MuSaturatedStacking) {
  // One worker runs all m = 3 tasks (mu = 4): W = 3 * speed.
  auto plat = make_platform({2}, 1, /*mu=*/4);
  model::Application app;
  app.num_tasks = 3;
  app.t_prog = 0;
  app.t_data = 0;
  app.iterations = 1;
  platform::FixedAvailability avail({{State::Up}});
  PinScheduler sched(model::Configuration({{0, 3}}));
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.makespan, 6);
}

TEST(EngineEdge, IterationStatsAreContiguousAndOrdered) {
  auto plat = make_platform({1, 2}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 1;
  app.t_data = 1;
  app.iterations = 4;
  platform::MarkovAvailability avail(plat, 5);
  PinScheduler sched(model::Configuration({{0, 1}, {1, 1}}));
  sim::EngineOptions opts;
  opts.slot_cap = 100000;
  sim::Engine engine(plat, app, avail, sched, opts);
  auto r = engine.run();
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.iterations.size(), 4u);
  long prev_end = -1;
  for (const auto& it : r.iterations) {
    EXPECT_EQ(it.start_slot, prev_end + 1);  // iterations tile the timeline
    EXPECT_GE(it.end_slot, it.start_slot);
    prev_end = it.end_slot;
  }
  EXPECT_EQ(r.iterations.back().end_slot, r.makespan - 1);
}

TEST(EngineEdge, TraceLengthEqualsMakespan) {
  auto plat = make_platform({1, 1}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 1;
  app.t_data = 1;
  app.iterations = 2;
  platform::FixedAvailability avail({std::vector<State>(2, State::Up)});
  PinScheduler sched(model::Configuration({{0, 1}, {1, 1}}));
  sim::EngineOptions opts;
  opts.record_trace = true;
  sim::Engine engine(plat, app, avail, sched, opts);
  auto r = engine.run();
  EXPECT_EQ(static_cast<long>(engine.trace().size()), r.makespan);
}

TEST(EngineEdge, ViewExposesHoldingsAndProgress) {
  auto plat = make_platform({2, 2}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 2;
  app.t_data = 1;
  app.iterations = 1;
  platform::FixedAvailability avail({std::vector<State>(2, State::Up)});
  PinScheduler sched(model::Configuration({{0, 1}, {1, 1}}));
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  EXPECT_TRUE(r.success);
  // Last decide happened at the final compute slot: program held, one data
  // message banked, and compute_done reflects banked progress.
  ASSERT_EQ(sched.last_view_holdings_.size(), 2u);
  EXPECT_TRUE(sched.last_view_holdings_[0].has_program);
  EXPECT_EQ(sched.last_view_holdings_[0].data_messages, 1);
  EXPECT_EQ(sched.last_elapsed_, r.makespan - 1);
  EXPECT_EQ(sched.last_compute_done_, 1);  // W = 2; final slot banks the 2nd
}

TEST(EngineEdge, DataResetBetweenIterationsButProgramKept) {
  auto plat = make_platform({1, 1}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 3;
  app.t_data = 2;
  app.iterations = 3;
  platform::FixedAvailability avail({std::vector<State>(2, State::Up)});
  PinScheduler sched(model::Configuration({{0, 1}, {1, 1}}));
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.iterations.size(), 3u);
  // First iteration pays program + data; later iterations pay data only.
  EXPECT_EQ(r.iterations[0].comm_slots, 5);
  EXPECT_EQ(r.iterations[1].comm_slots, 2);
  EXPECT_EQ(r.iterations[2].comm_slots, 2);
}

TEST(EngineEdge, DownOfUnenrolledWorkerIsHarmless) {
  // P2 flaps DOWN while only P0/P1 are enrolled: no restart.
  std::vector<std::vector<State>> script(
      10, {State::Up, State::Up, State::Down});
  platform::FixedAvailability avail(script);
  auto plat = make_platform({1, 1, 1}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 1;
  app.t_data = 1;
  app.iterations = 1;
  PinScheduler sched(model::Configuration({{0, 1}, {1, 1}}));
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.total_restarts, 0);
}

TEST(EngineEdge, RejectsBadConstructionParameters) {
  auto plat = make_platform({1, 1}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.iterations = 1;
  platform::FixedAvailability small({{State::Up}});  // 1 proc vs platform 2
  PinScheduler sched(model::Configuration({{0, 2}}));
  EXPECT_THROW(sim::Engine(plat, app, small, sched), std::invalid_argument);

  platform::FixedAvailability ok({std::vector<State>(2, State::Up)});
  sim::EngineOptions opts;
  opts.slot_cap = 0;
  EXPECT_THROW(sim::Engine(plat, app, ok, sched, opts), std::invalid_argument);

  platform::FixedAvailability ok2({std::vector<State>(2, State::Up)});
  sim::EngineOptions bad_block;
  bad_block.avail_block = 0;
  EXPECT_THROW(sim::Engine(plat, app, ok2, sched, bad_block), std::invalid_argument);
}

TEST(EngineEdge, AvailabilityBlockSizeDoesNotChangeResults) {
  // The engine consumes availability through fill_block; any block size must
  // yield the identical simulation (block = 1 is the per-slot layout).
  auto plat = make_platform({2, 3, 1}, 2);
  model::Application app;
  app.num_tasks = 3;
  app.t_data = 2;
  app.t_prog = 4;
  app.iterations = 3;

  sim::SimulationResult reference{};
  for (long block : {1L, 3L, 256L}) {
    platform::MarkovAvailability avail(plat, 97);
    PinScheduler sched(model::Configuration({{0, 2}, {1, 1}}));
    sim::EngineOptions opts;
    opts.slot_cap = 50'000;
    opts.avail_block = block;
    sim::Engine engine(plat, app, avail, sched, opts);
    const auto r = engine.run();
    if (block == 1) {
      reference = r;
      continue;
    }
    EXPECT_EQ(r.makespan, reference.makespan) << "block=" << block;
    EXPECT_EQ(r.success, reference.success) << "block=" << block;
    EXPECT_EQ(r.total_restarts, reference.total_restarts) << "block=" << block;
    EXPECT_EQ(r.idle_slots, reference.idle_slots) << "block=" << block;
  }
}

TEST(EngineEdge, StalledSlotsCountCommPhaseFreezes) {
  // Comm phase with every pending worker RECLAIMED: the slot progresses
  // nothing and must be accounted as stalled (not comm, compute or idle).
  std::vector<std::vector<State>> script = {
      {State::Up, State::Up},
      {State::Reclaimed, State::Reclaimed},
      {State::Reclaimed, State::Reclaimed},
      {State::Up, State::Up},
  };
  platform::FixedAvailability avail(script);
  auto plat = make_platform({1, 1}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 1;
  app.t_data = 1;
  app.iterations = 1;
  PinScheduler sched(model::Configuration({{0, 1}, {1, 1}}));
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.iterations.size(), 1u);
  // Slots 0 and 3 transfer (2 messages each in parallel), 1-2 are frozen,
  // slot 4 computes: 5 = 2 comm + 2 stalled + 1 compute.
  EXPECT_EQ(r.iterations[0].comm_slots, 2);
  EXPECT_EQ(r.iterations[0].stalled_slots, 2);
  EXPECT_EQ(r.iterations[0].compute_slots, 1);
  EXPECT_EQ(r.iterations[0].suspended_slots, 0);
  EXPECT_EQ(r.makespan, 5);
}

/// A scheduler that pins one configuration but reports WhileConfigured, so
/// the engine may skip every consult while it is installed.
class QuiescentPinScheduler final : public sim::Scheduler {
 public:
  explicit QuiescentPinScheduler(model::Configuration config)
      : config_(std::move(config)) {}
  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override {
    ++decides_;
    q_.kind = sim::Quiescence::Kind::WhileConfigured;
    if (view.has_config()) return std::nullopt;
    for (const auto& a : config_.assignments()) {
      if (view.states[static_cast<std::size_t>(a.proc)] != State::Up) {
        // Waiting for a pinned worker to come UP: exactly the UntilEvent
        // "some processor joins the UP set" wake-up condition.
        q_.kind = sim::Quiescence::Kind::UntilEvent;
        q_.horizon = sim::Quiescence::kUnbounded;
        q_.watched.clear();
        return std::nullopt;
      }
    }
    return config_;
  }
  [[nodiscard]] const sim::Quiescence& quiescence() const override { return q_; }
  [[nodiscard]] std::string_view name() const override { return "quiescent-pin"; }

  long decides_ = 0;

 private:
  model::Configuration config_;
  sim::Quiescence q_;
};

TEST(EngineEdge, WhileConfiguredSkipsConsultsWithIdenticalResults) {
  auto plat = make_platform({1, 2}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 2;
  app.t_data = 2;
  app.iterations = 6;

  sim::SimulationResult results[2];
  long decides[2] = {0, 0};
  long consults[2] = {0, 0};
  for (bool ff : {false, true}) {
    platform::MarkovAvailability avail(plat, 29);
    QuiescentPinScheduler sched(model::Configuration({{0, 1}, {1, 1}}));
    sim::EngineOptions opts;
    opts.slot_cap = 100'000;
    opts.fast_forward = ff;
    sim::Engine engine(plat, app, avail, sched, opts);
    results[ff ? 1 : 0] = engine.run();
    decides[ff ? 1 : 0] = sched.decides_;
    consults[ff ? 1 : 0] = engine.consults();
  }
  ASSERT_TRUE(results[0].success);
  EXPECT_EQ(results[0].makespan, results[1].makespan);
  EXPECT_EQ(results[0].total_restarts, results[1].total_restarts);
  EXPECT_EQ(results[0].idle_slots, results[1].idle_slots);
  // The per-slot loop consults every slot; the event-horizon loop only at
  // event slots.
  EXPECT_EQ(consults[0], results[0].makespan);
  EXPECT_LT(consults[1], consults[0] / 2);
  EXPECT_EQ(decides[0], consults[0]);
  EXPECT_EQ(decides[1], consults[1]);
}

/// Pins one configuration and, once it is installed, answers "no change"
/// under UntilEvent — a promise that covers comm progress but not message
/// completions. Records the slot of every consult.
class UntilEventPinScheduler final : public sim::Scheduler {
 public:
  explicit UntilEventPinScheduler(model::Configuration config)
      : config_(std::move(config)) {}
  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override {
    slots_.push_back(view.slot);
    if (!view.has_config()) {
      q_.kind = sim::Quiescence::Kind::EverySlot;
      return config_;
    }
    q_.kind = sim::Quiescence::Kind::UntilEvent;
    q_.horizon = sim::Quiescence::kUnbounded;
    q_.watched.clear();
    return std::nullopt;
  }
  [[nodiscard]] const sim::Quiescence& quiescence() const override { return q_; }
  [[nodiscard]] std::string_view name() const override { return "until-event-pin"; }

  std::vector<long> slots_;

 private:
  model::Configuration config_;
  sim::Quiescence q_;
};

TEST(EngineEdge, MessageCompletedByPerSlotStepForcesNextConsult) {
  // Three 2-slot data messages to one always-UP worker (no program): they
  // complete at slots 1, 3 and 5. Slot 1 is a per-slot step (it follows the
  // install), so the bulk advance must not start after it: slot 2's consult
  // is the first to see the new holdings. Slots 3 and 5 are skipped by comm
  // runs that end on their completions, and slots 7-8 by a compute run.
  auto plat = make_platform({1}, 1);
  model::Application app;
  app.num_tasks = 3;
  app.t_prog = 0;
  app.t_data = 2;
  app.iterations = 1;

  sim::SimulationResult results[2];
  std::vector<long> slots[2];
  for (bool ff : {false, true}) {
    platform::FixedAvailability avail({{State::Up}});
    UntilEventPinScheduler sched(model::Configuration({{0, 3}}));
    sim::EngineOptions opts;
    opts.fast_forward = ff;
    sim::Engine engine(plat, app, avail, sched, opts);
    results[ff ? 1 : 0] = engine.run();
    slots[ff ? 1 : 0] = sched.slots_;
  }
  ASSERT_TRUE(results[1].success);
  EXPECT_EQ(results[1].makespan, 9);
  EXPECT_EQ(results[0].makespan, results[1].makespan);
  ASSERT_EQ(results[0].iterations.size(), 1u);
  ASSERT_EQ(results[1].iterations.size(), 1u);
  EXPECT_EQ(results[0].iterations[0].comm_slots, results[1].iterations[0].comm_slots);
  EXPECT_EQ(results[0].iterations[0].compute_slots,
            results[1].iterations[0].compute_slots);
  EXPECT_EQ(slots[0].size(), 9u);  // the per-slot loop consults every slot
  EXPECT_EQ(slots[1], (std::vector<long>{0, 1, 2, 4, 6}));
}

TEST(EngineEdge, FastForwardMatchesPerSlotOnScriptedRestarts) {
  // A script exercising every event type: suspensions mid-compute, an
  // enrolled DOWN (restart), un-enrolled DOWNs (crash only), and recovery —
  // driven by a real passive heuristic so the WhileConfigured, restart and
  // idle paths all engage. Results and traces must be bit-identical.
  std::vector<std::vector<State>> script;
  auto row = [](State a, State b, State c) { return std::vector<State>{a, b, c}; };
  for (int i = 0; i < 4; ++i) script.push_back(row(State::Up, State::Up, State::Up));
  script.push_back(row(State::Up, State::Reclaimed, State::Down));
  script.push_back(row(State::Up, State::Reclaimed, State::Down));
  script.push_back(row(State::Up, State::Down, State::Up));  // enrolled DOWN
  for (int i = 0; i < 3; ++i) script.push_back(row(State::Down, State::Down, State::Down));
  for (int i = 0; i < 30; ++i) script.push_back(row(State::Up, State::Up, State::Reclaimed));

  platform::ScenarioParams params;
  params.p = 3;
  params.seed = 9;
  auto scenario = platform::make_scenario(params);
  model::Application app;
  app.num_tasks = 3;
  app.t_prog = 2;
  app.t_data = 1;
  app.iterations = 3;

  sim::SimulationResult results[2];
  sim::ActivityTrace traces[2];
  for (bool ff : {false, true}) {
    platform::FixedAvailability avail(script);
    sched::Estimator estimator(scenario.platform, app, 1e-6);
    sched::PassiveScheduler sched(sched::Rule::IE, estimator);
    sim::EngineOptions opts;
    opts.slot_cap = 10'000;
    opts.record_trace = true;
    opts.avail_block = 4;  // force refills inside bulk runs
    opts.fast_forward = ff;
    sim::Engine engine(scenario.platform, app, avail, sched, opts);
    results[ff ? 1 : 0] = engine.run();
    traces[ff ? 1 : 0] = engine.trace();
  }
  EXPECT_EQ(results[0].success, results[1].success);
  EXPECT_EQ(results[0].makespan, results[1].makespan);
  EXPECT_EQ(results[0].total_restarts, results[1].total_restarts);
  EXPECT_EQ(results[0].idle_slots, results[1].idle_slots);
  ASSERT_EQ(results[0].iterations.size(), results[1].iterations.size());
  for (std::size_t i = 0; i < results[0].iterations.size(); ++i) {
    EXPECT_EQ(results[0].iterations[i].comm_slots, results[1].iterations[i].comm_slots);
    EXPECT_EQ(results[0].iterations[i].stalled_slots,
              results[1].iterations[i].stalled_slots);
    EXPECT_EQ(results[0].iterations[i].compute_slots,
              results[1].iterations[i].compute_slots);
    EXPECT_EQ(results[0].iterations[i].suspended_slots,
              results[1].iterations[i].suspended_slots);
  }
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t t = 0; t < traces[0].size(); ++t) {
    for (std::size_t q = 0; q < traces[0][t].size(); ++q) {
      ASSERT_TRUE(traces[0][t][q].state == traces[1][t][q].state &&
                  traces[0][t][q].action == traces[1][t][q].action)
          << "slot " << t << " proc " << q;
    }
  }
}

TEST(EngineEdge, SuspendedCommWholeConfigReclaimed) {
  // Everyone RECLAIMED during the comm phase: nothing progresses, nothing
  // is lost; transfers resume afterwards.
  std::vector<std::vector<State>> script = {
      {State::Up, State::Up},
      {State::Reclaimed, State::Reclaimed},
      {State::Reclaimed, State::Reclaimed},
      {State::Up, State::Up},
  };
  platform::FixedAvailability avail(script);
  auto plat = make_platform({1, 1}, 2);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 1;
  app.t_data = 1;
  app.iterations = 1;
  PinScheduler sched(model::Configuration({{0, 1}, {1, 1}}));
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  // Comm slots 0, 3 (2 each in parallel); compute at 4 -> makespan 5.
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.makespan, 5);
  EXPECT_EQ(r.total_restarts, 0);
}

}  // namespace
}  // namespace tcgrid
