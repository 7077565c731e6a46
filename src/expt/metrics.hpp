// The paper's comparison metrics (§VII-A): %diff, %wins, %wins30, stdv and
// the failure count, all relative to the reference heuristic IE, and the
// in-memory outcome tensor they are computed from.
#pragma once

#include <string>
#include <vector>

#include "platform/scenario.hpp"

namespace tcgrid::expt {

/// Outcome of one (heuristic, scenario, trial) simulation.
struct TrialOutcome {
  bool success = false;  ///< completed all iterations before the slot cap
  long makespan = 0;
};

/// Per-scenario outcomes of one heuristic: outcomes[trial].
using ScenarioOutcomes = std::vector<TrialOutcome>;

/// All (heuristic x scenario x trial) outcomes of a sweep, with scenario
/// parameters aligned by scenario index (filled by api::AggregateSink).
struct SweepResults {
  std::vector<std::string> heuristics;
  std::vector<platform::ScenarioParams> scenarios;
  /// outcomes[h][scenario][trial]
  std::vector<std::vector<ScenarioOutcomes>> outcomes;

  /// Index of `name` in `heuristics`. Contract: throws std::invalid_argument
  /// (naming the heuristic) when `name` was not part of the sweep — callers
  /// use the index to address `outcomes`, so a silent sentinel would turn a
  /// typo into out-of-bounds access. Use try_heuristic_index to probe.
  [[nodiscard]] int heuristic_index(const std::string& name) const;

  /// Non-throwing lookup: the index of `name`, or -1 if not in the sweep.
  [[nodiscard]] int try_heuristic_index(const std::string& name) const noexcept;
};

/// Aggregate of one heuristic against the reference, over all scenarios.
struct HeuristicSummary {
  std::string name;
  int fails = 0;            ///< trials that hit the makespan cap
  double pct_diff = 0.0;    ///< mean over scenarios of 100 * relative diff
  double pct_wins = 0.0;    ///< % of trials with makespan <= reference's
  double pct_wins30 = 0.0;  ///< % of trials within +30% of the reference
  double stdv = 0.0;        ///< stdev across scenarios of the relative diff
  int scenarios_compared = 0;  ///< scenarios contributing to pct_diff
};

/// Relative difference of one scenario (paper §VII-A):
///   (makespan_H - makespan_ref) / min(makespan_H, makespan_ref)
/// with makespans averaged over the trials where both heuristics succeed.
/// Returns false if no trial allows the comparison.
[[nodiscard]] bool scenario_relative_diff(const ScenarioOutcomes& h,
                                          const ScenarioOutcomes& ref, double& out);

/// Full summary over aligned per-scenario outcome vectors.
[[nodiscard]] HeuristicSummary summarize(const std::string& name,
                                         const std::vector<ScenarioOutcomes>& h,
                                         const std::vector<ScenarioOutcomes>& ref);

}  // namespace tcgrid::expt
