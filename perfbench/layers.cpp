// The traced run's per-unit body: api::Session::run_unit rebuilt from the
// library's public pieces, with timing decorators around the two calls that
// split a unit into layers — AvailabilitySource::fill_block (platform) and
// Scheduler::decide (sched). Everything else inside Engine::run is the
// engine's own time (sim). Nothing inside src/ is instrumented.
#include <optional>

#include "bench.hpp"
#include "platform/realization.hpp"
#include "sched/registry.hpp"
#include "scen/registry.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tcgbench {

namespace {

using namespace tcgrid;

class TimedSource final : public platform::AvailabilitySource {
 public:
  TimedSource(std::unique_ptr<platform::AvailabilitySource> inner, LayerTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  [[nodiscard]] int size() const override { return inner_->size(); }
  [[nodiscard]] markov::State state(int q) const override { return inner_->state(q); }
  void advance() override {
    inner_->advance();
    ++times_.gen_slots;
    times_.gen_proc_slots += inner_->size();
  }
  [[nodiscard]] long position() const override { return inner_->position(); }
  void fill_block(markov::State* buf, long slots) override {
    const double t0 = now_s();
    inner_->fill_block(buf, slots);
    times_.fill_s += now_s() - t0;
    times_.gen_slots += slots;
    times_.gen_proc_slots += slots * inner_->size();
  }

 private:
  std::unique_ptr<platform::AvailabilitySource> inner_;
  LayerTimes& times_;
};

/// Forwards quiescence(), so the engine's fast-forward sees exactly the
/// undecorated scheduler's promises and the run is unchanged.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::Scheduler> inner, LayerTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override {
    const double t0 = now_s();
    std::optional<model::Configuration> out = inner_->decide(view);
    times_.decide_s += now_s() - t0;
    ++times_.decides;
    return out;
  }
  [[nodiscard]] const sim::Quiescence& quiescence() const override {
    return inner_->quiescence();
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  LayerTimes& times_;
};

/// Seed of trial t's availability stream and of its RANDOM scheduler: the
/// derivations Session uses (streams 1000 + t and 2000 + t of the scenario
/// seed). A change there shows up as a traced/untraced digest mismatch.
std::uint64_t availability_seed(const platform::ScenarioParams& p, int trial) {
  return util::derive_seed(p.seed, 1000 + static_cast<std::uint64_t>(trial));
}
std::uint64_t scheduler_seed(const platform::ScenarioParams& p, int trial) {
  return util::derive_seed(p.seed, 2000 + static_cast<std::uint64_t>(trial));
}

}  // namespace

struct TracedUnits::Entry {
  Entry(platform::Scenario s, double eps, std::shared_ptr<markov::ChainStatsStore> store)
      : scenario(std::move(s)),
        estimator(scenario.platform, scenario.app, eps, std::move(store)) {}
  platform::Scenario scenario;
  sched::Estimator estimator;
};

TracedUnits::TracedUnits(const api::Options& options, LayerTimes& times)
    : options_(options),
      store_(std::make_shared<markov::ChainStatsStore>(options.eps)),
      times_(times) {}

TracedUnits::~TracedUnits() = default;

std::vector<sim::SimulationResult> TracedUnits::run_unit(
    const api::ExperimentSpec& spec, const platform::ScenarioParams& params, int trial) {
  const auto avail = scen::availability_family(spec.scenario_space.availability);
  const Key key{params.seed, params.m, params.ncom, params.wmin, params.p, params.iterations};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    const double t0 = now_s();
    platform::Scenario scenario =
        scen::platform_family(spec.scenario_space.platform)->make(params);
    const double t1 = now_s();
    auto entry = std::make_unique<Entry>(std::move(scenario), options_.eps, store_);
    times_.platform_setup_s += t1 - t0;
    times_.estimator_build_s += now_s() - t1;
    it = entries_.emplace(key, std::move(entry)).first;
  }
  const platform::Scenario& sc = it->second->scenario;
  const sched::Estimator& est = it->second->estimator;

  auto make_source = [&] {
    return std::make_unique<TimedSource>(
        avail->make_source(sc.platform, availability_seed(params, trial), options_.init),
        times_);
  };
  // One engine run; `source` is null for a replay of `realization`.
  auto run = [&](const std::string& heuristic, platform::Realization* realization,
                 platform::AvailabilitySource* source) {
    double t0 = now_s();
    TimedScheduler scheduler(
        sched::make_scheduler(heuristic, est, scheduler_seed(params, trial)), times_);
    times_.sched_setup_s += now_s() - t0;
    const double fill0 = times_.fill_s;
    const double decide0 = times_.decide_s;
    t0 = now_s();
    std::optional<sim::Engine> engine;
    if (realization != nullptr) {
      engine.emplace(sc.platform, sc.app, *realization, scheduler, options_.engine(false));
    } else {
      engine.emplace(sc.platform, sc.app, *source, scheduler, options_.engine(false));
    }
    auto account = [&] {
      times_.engine_s += now_s() - t0;
      times_.engine_fill_s += times_.fill_s - fill0;
      times_.engine_decide_s += times_.decide_s - decide0;
    };
    sim::SimulationResult result;
    try {
      result = engine->run();
    } catch (...) {
      account();  // an over-budget replay still did its work
      throw;
    }
    account();
    times_.sim_slots += result.makespan;
    times_.replay_jumps += engine->telemetry().replay_jumps;
    times_.per_slot_steps += engine->telemetry().per_slot_steps;
    return result;
  };

  const std::vector<std::string>& heuristics = spec.resolved_heuristics();
  std::vector<sim::SimulationResult> results(heuristics.size());
  double t0 = now_s();
  std::optional<platform::Realization> realization;
  if (options_.realization_budget > 0) {
    realization.emplace(make_source(), options_.realization_budget);
  }
  times_.platform_setup_s += now_s() - t0;
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    if (realization.has_value()) {
      // Session's rule: the last consumer stops recording and continues live.
      if (h + 1 == heuristics.size()) realization->freeze();
      try {
        results[h] = run(heuristics[h], &*realization, nullptr);
        times_.realization_bytes_peak =
            std::max(times_.realization_bytes_peak, realization->bytes());
        continue;
      } catch (const platform::RealizationBudgetExceeded&) {
        realization.reset();
        ++times_.budget_fallbacks;
      }
    }
    t0 = now_s();
    const auto source = make_source();
    times_.platform_setup_s += now_s() - t0;
    results[h] = run(heuristics[h], nullptr, source.get());
  }
  return results;
}

}  // namespace tcgbench
