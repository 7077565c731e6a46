// The reference wiring the api::Session facade is checked against: one
// (scenario, heuristic, trial) run assembled by hand from
// MarkovAvailability, make_scheduler and Engine, with the §2.2 seed
// derivation restated here as an oracle (availability stream 1000 + trial,
// scheduler stream 2000 + trial) rather than read from api::trial_seed.
#pragma once

#include <cstdint>
#include <string_view>

#include "platform/availability.hpp"
#include "platform/scenario.hpp"
#include "sched/estimator.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tcgrid {

inline sim::SimulationResult manual_run(const platform::Scenario& scenario,
                                        const sched::Estimator& estimator,
                                        std::string_view heuristic, int trial,
                                        long slot_cap) {
  const auto t = static_cast<std::uint64_t>(trial);
  platform::MarkovAvailability availability(
      scenario.platform, util::derive_seed(scenario.params.seed, 1000 + t),
      platform::InitialStates::Stationary);
  auto scheduler = sched::make_scheduler(
      heuristic, estimator, util::derive_seed(scenario.params.seed, 2000 + t));
  sim::EngineOptions engine_options;
  engine_options.slot_cap = slot_cap;
  sim::Engine engine(scenario.platform, scenario.app, availability, *scheduler,
                     engine_options);
  return engine.run();
}

}  // namespace tcgrid
