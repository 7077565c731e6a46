// Formatting sweep results the way the paper reports them: Table I/II rows
// and the Figure 2 per-wmin %diff series.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "expt/metrics.hpp"
#include "util/table.hpp"

namespace tcgrid::expt {

/// Summaries of every heuristic in the sweep against `reference`, sorted by
/// ascending pct_diff (best first — the paper's table order).
[[nodiscard]] std::vector<HeuristicSummary> summarize_all(const SweepResults& results,
                                                          const std::string& reference);

/// Render summaries as a paper-style table:
/// Heuristic | #fails | %diff | %wins | %wins30 | stdv
[[nodiscard]] util::Table paper_table(const std::vector<HeuristicSummary>& summaries);

/// Figure 2: for each heuristic, the mean relative difference vs the
/// reference restricted to scenarios with a given wmin. Values are ratios
/// (the figure's y axis), not percentages.
using Figure2Series = std::map<std::string, std::vector<std::pair<long, double>>>;
[[nodiscard]] Figure2Series figure2_series(const SweepResults& results,
                                           const std::string& reference);

/// Render a Figure 2 series as a wmin-by-heuristic table.
[[nodiscard]] util::Table figure2_table(const Figure2Series& series);

}  // namespace tcgrid::expt
