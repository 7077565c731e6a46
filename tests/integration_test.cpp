// Cross-module integration tests: the data-loss-on-removal semantics of
// §III-C, the comm service-order ablation hook, and a deterministic
// mini-sweep pinning the paper's qualitative ordering.
#include <gtest/gtest.h>

#include "api/api.hpp"
#include "expt/report.hpp"
#include "platform/availability.hpp"
#include "sim/engine.hpp"

namespace tcgrid {
namespace {

using markov::State;

platform::Platform uniform_platform(int p, int ncom) {
  std::vector<platform::Processor> procs(static_cast<std::size_t>(p));
  for (auto& pr : procs) {
    pr.speed = 1;
    pr.max_tasks = 8;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
  }
  return platform::Platform(std::move(procs), ncom);
}

/// Returns a fixed sequence of configurations, one per decision opportunity.
class SequenceScheduler final : public sim::Scheduler {
 public:
  explicit SequenceScheduler(std::vector<std::pair<long, model::Configuration>> plan)
      : plan_(std::move(plan)) {}

  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override {
    if (next_ < plan_.size() && plan_[next_].first == view.slot) {
      return plan_[next_++].second;
    }
    return std::nullopt;
  }
  [[nodiscard]] std::string_view name() const override { return "sequence"; }

 private:
  std::vector<std::pair<long, model::Configuration>> plan_;
  std::size_t next_ = 0;
};

// ------------------------------------------------ §III-C data-loss rule ----

TEST(Integration, RemovedWorkerLosesDataButKeepsProgram) {
  // m = 2, Tprog = 4, Tdata = 2, ncom = 4. Plan:
  //   slot 0: enroll {P0, P1} -> both download program (4) + data (2) = 6 slots.
  //   slot 3: switch to {P0, P2} -> P1 is removed mid-download.
  //   slot 9: switch back to {P0, P1}.
  // P1 must re-receive its data, but NOT the program if it had completed it
  // before removal — here it had not (removed at slot 3 < Tprog), so it
  // restarts the program too. P0 stays enrolled throughout and keeps its
  // progress except for computation.
  auto plat = uniform_platform(3, 4);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 4;
  app.t_data = 2;
  app.iterations = 1;

  platform::FixedAvailability avail(
      {std::vector<State>(3, State::Up)});  // always UP

  SequenceScheduler sched({
      {0, model::Configuration({{0, 1}, {1, 1}})},
      {3, model::Configuration({{0, 1}, {2, 1}})},
      {9, model::Configuration({{0, 1}, {1, 1}})},
  });
  sim::EngineOptions opts;
  opts.record_trace = true;
  sim::Engine engine(plat, app, avail, sched, opts);
  const auto r = engine.run();
  EXPECT_TRUE(r.success);

  const auto& trace = engine.trace();
  // P1 transferred during slots 0-2, nothing during 3-8, and must be seen
  // transferring the *program* again at slot 9 (partial was lost).
  EXPECT_EQ(trace[0][1].action, sim::Action::Program);
  for (long t = 3; t < 9; ++t) {
    EXPECT_EQ(trace[static_cast<std::size_t>(t)][1].action, sim::Action::None) << t;
  }
  EXPECT_EQ(trace[9][1].action, sim::Action::Program);
}

TEST(Integration, RemovedWorkerWithCompleteProgramKeepsIt) {
  // Same shape, but the switch happens after P1 finished the program and its
  // first data message: on re-enrollment P1 must go straight to *data*
  // (program kept, data lost — the exact §III-C asymmetry).
  auto plat = uniform_platform(3, 4);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 4;
  app.t_data = 2;
  app.iterations = 1;

  platform::FixedAvailability avail({std::vector<State>(3, State::Up)});
  SequenceScheduler sched({
      {0, model::Configuration({{0, 1}, {1, 1}})},
      {6, model::Configuration({{0, 1}, {2, 1}})},  // P1 done (4+2=6 slots)
      {8, model::Configuration({{0, 1}, {1, 1}})},
  });
  sim::EngineOptions opts;
  opts.record_trace = true;
  sim::Engine engine(plat, app, avail, sched, opts);
  const auto r = engine.run();
  EXPECT_TRUE(r.success);

  const auto& trace = engine.trace();
  EXPECT_EQ(trace[8][1].action, sim::Action::Data);  // program survived
  // ... and the data really was re-sent (slot 8 and 9).
  EXPECT_EQ(trace[9][1].action, sim::Action::Data);
}

TEST(Integration, StayingEnrolledKeepsDataAcrossSwitch) {
  // P0 stays enrolled across the switch: its holdings survive, so after the
  // switch it is idle (everything already transferred) while P2 downloads.
  auto plat = uniform_platform(3, 4);
  model::Application app;
  app.num_tasks = 2;
  app.t_prog = 2;
  app.t_data = 2;
  app.iterations = 1;

  platform::FixedAvailability avail({std::vector<State>(3, State::Up)});
  SequenceScheduler sched({
      {0, model::Configuration({{0, 1}, {1, 1}})},
      {4, model::Configuration({{0, 1}, {2, 1}})},  // P0 done at slot 3
  });
  sim::EngineOptions opts;
  opts.record_trace = true;
  sim::Engine engine(plat, app, avail, sched, opts);
  const auto r = engine.run();
  EXPECT_TRUE(r.success);
  const auto& trace = engine.trace();
  for (long t = 4; t < 8; ++t) {
    EXPECT_EQ(trace[static_cast<std::size_t>(t)][0].action, sim::Action::Idle) << t;
  }
}

// ------------------------------------------------------ comm order hook ----

TEST(Integration, CommOrderChangesServiceNotTotal) {
  // ncom = 1, two workers with unequal needs, all UP: the service order
  // permutes who goes first but cannot change the total communication time
  // (the compute phase is a barrier).
  // Unequal needs: m = 3 with {P0: 1 task, P1: 2 tasks}, Tdata = 1, no
  // program cost -> P0 needs 1 transfer slot, P1 needs 2.
  auto plat = uniform_platform(2, 1);
  model::Application app;
  app.num_tasks = 3;
  app.t_prog = 0;
  app.t_data = 1;
  app.iterations = 1;

  long makespans[3];
  sim::Action first_served[3];
  int i = 0;
  for (auto order : {sim::CommOrder::Enrollment, sim::CommOrder::FewestFirst,
                     sim::CommOrder::MostFirst}) {
    platform::FixedAvailability avail({std::vector<State>(2, State::Up)});
    SequenceScheduler sched({{0, model::Configuration({{0, 1}, {1, 2}})}});
    sim::EngineOptions opts;
    opts.record_trace = true;
    opts.comm_order = order;
    sim::Engine engine(plat, app, avail, sched, opts);
    const auto r = engine.run();
    EXPECT_TRUE(r.success);
    makespans[i] = r.makespan;
    first_served[i] = engine.trace()[0][1].action;
    ++i;
  }
  EXPECT_EQ(makespans[0], makespans[1]);
  EXPECT_EQ(makespans[1], makespans[2]);
  // Enrollment order serves P0 first (P1 idle at slot 0); most-first serves
  // P1 (2 messages) first.
  EXPECT_EQ(first_served[0], sim::Action::Idle);
  EXPECT_EQ(first_served[2], sim::Action::Data);
}

// --------------------------------------------------- qualitative sweep ----

TEST(Integration, MiniSweepPaperOrdering) {
  // Deterministic regression pin of the paper's coarsest claims on a small
  // but fixed sweep: RANDOM is by far the worst; the flagship proactive
  // heuristic Y-IE beats the passive probability-driven IP.
  api::ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1, 3};
  spec.grid.scenarios_per_cell = 4;
  spec.grid.iterations = 5;
  spec.trials = 3;
  spec.options.slot_cap = 200000;
  spec.heuristics = {"RANDOM", "IP", "IE", "Y-IE"};
  spec.options.threads = 1;

  api::AggregateSink aggregate;
  api::Session().run(spec, {&aggregate});
  const auto summaries = expt::summarize_all(aggregate.results(), "IE");
  double random_diff = 0, ip_diff = 0, yie_diff = 0;
  for (const auto& s : summaries) {
    if (s.name == "RANDOM") random_diff = s.pct_diff;
    if (s.name == "IP") ip_diff = s.pct_diff;
    if (s.name == "Y-IE") yie_diff = s.pct_diff;
  }
  EXPECT_GT(random_diff, 100.0);      // order-of-magnitude worse
  EXPECT_GT(random_diff, ip_diff);
  EXPECT_LT(yie_diff, ip_diff);       // flagship beats passive IP
}

}  // namespace
}  // namespace tcgrid
