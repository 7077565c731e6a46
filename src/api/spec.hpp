// Declarative description of an experiment: what to run, not how.
//
// An ExperimentSpec names a scenario population (either the paper's factorial
// grid or an explicit scenario list), the scenario space it lives in (which
// availability/platform families, by registry name), a heuristic set, a
// trial count and one api::Options block. A Session turns the spec into
// simulations; ResultSinks receive the outcomes. New workloads are a spec,
// not 100 lines of plumbing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/options.hpp"
#include "platform/scenario.hpp"
#include "scen/space.hpp"
#include "util/rng.hpp"

namespace tcgrid::api {

// ---------------------------------------------------------- unit addressing ----
// The stable id of one (scenario, trial) work unit. Every executor that
// partitions a sweep — Session::run's queue, the serve daemon's dispatch
// bitmap and units.log commit records, and the shard coordinator's leases —
// addresses units by this SAME flat index, so a unit id written by one
// process (a shard's checkpoint, a coordinator's lease) means the identical
// simulation in every other process running the same spec. The encoding is
// trial-minor: all trials of scenario 0 first, then scenario 1, matching the
// trial-major replay order that keeps availability realizations hot.

/// unit = scenario * trials + trial.
[[nodiscard]] constexpr std::size_t unit_index(std::size_t scenario, std::size_t trial,
                                               std::size_t trials) noexcept {
  return scenario * trials + trial;
}
/// Inverse of unit_index: the scenario coordinate.
[[nodiscard]] constexpr std::size_t unit_scenario(std::size_t unit,
                                                  std::size_t trials) noexcept {
  return unit / trials;
}
/// Inverse of unit_index: the trial coordinate.
[[nodiscard]] constexpr std::size_t unit_trial(std::size_t unit,
                                               std::size_t trials) noexcept {
  return unit % trials;
}

// ------------------------------------------------------------ trial seeds ----
// The paired-trial derivation (DESIGN.md §2.2): every heuristic run on a
// (scenario seed, trial) faces the same streams.

/// Seed of the trial's availability stream (stream 1000 + trial).
[[nodiscard]] constexpr std::uint64_t trial_seed(
    const platform::ScenarioParams& params, int trial) noexcept {
  return util::derive_seed(params.seed, 1000 + static_cast<std::uint64_t>(trial));
}
/// Seed of the trial's scheduler randomness, e.g. RANDOM (stream 2000 + trial).
[[nodiscard]] constexpr std::uint64_t scheduler_seed(
    const platform::ScenarioParams& params, int trial) noexcept {
  return util::derive_seed(params.seed, 2000 + static_cast<std::uint64_t>(trial));
}

/// The paper's factorial scenario grid (§VII-A): the cross product of
/// m x ncom x wmin, with `scenarios_per_cell` random scenarios per cell.
/// Scenario seeds are derived from Options::seed, so a grid is reproducible.
struct ScenarioGrid {
  std::vector<int> ms{5};
  std::vector<int> ncoms{5, 10, 20};
  std::vector<long> wmins{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  int scenarios_per_cell = 10;
  int p = 20;           ///< processors per scenario (paper fixes 20)
  int iterations = 10;  ///< application iterations to makespan (paper fixes 10)
};

/// A full experiment: scenarios x heuristics x trials, plus all knobs.
struct ExperimentSpec {
  /// Factorial grid, used when `explicit_scenarios` is empty.
  ScenarioGrid grid;

  /// Which world the scenario population lives in (family registry names,
  /// see scen/scen.hpp). The default is the paper's world: platform family
  /// "paper" and availability family "markov", which reproduces the plain
  /// ScenarioGrid sweep bit for bit. Scenario seeds are space-independent,
  /// so sweeps over several spaces are paired at the platform level.
  scen::ScenarioSpace scenario_space;

  /// Explicit scenario list; when non-empty it replaces the grid entirely.
  std::vector<platform::ScenarioParams> explicit_scenarios;

  /// Heuristic names (registry names). Empty = the paper's 17.
  std::vector<std::string> heuristics;

  int trials = 10;  ///< paired trials per (heuristic, scenario)

  Options options;

  /// The resolved scenario population: `explicit_scenarios` if given,
  /// otherwise the grid enumerated cell-major (scenarios_per_cell
  /// consecutive entries per cell, seeds derived from options.seed).
  [[nodiscard]] std::vector<platform::ScenarioParams> scenarios() const;

  /// The resolved heuristic set (all 17 when `heuristics` is empty).
  [[nodiscard]] const std::vector<std::string>& resolved_heuristics() const;

  /// Number of (scenario, trial) units in this spec — the exclusive upper
  /// bound of the unit_index address space. Materializes scenarios() to
  /// count them; cache the result on hot paths.
  [[nodiscard]] std::size_t unit_count() const {
    return scenarios().size() * static_cast<std::size_t>(trials);
  }

  /// Validate the spec before any simulation runs: every heuristic name must
  /// be registered and the counts positive. Throws std::invalid_argument
  /// naming the offending field, up front rather than mid-sweep.
  void validate() const;

  /// The paper's exact experimental scale for one m (10 scenarios/cell,
  /// 10 trials, 10^6-slot cap).
  [[nodiscard]] static ExperimentSpec paper(int m);

  /// The reduced sweep (DESIGN.md §2): same factorial structure, 2
  /// scenarios/cell x 2 trials, configurable cap. Minutes, not hours.
  [[nodiscard]] static ExperimentSpec reduced(int m, long slot_cap);
};

}  // namespace tcgrid::api
