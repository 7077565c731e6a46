#include "expt/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tcgrid::expt {

int SweepResults::heuristic_index(const std::string& name) const {
  const int i = try_heuristic_index(name);
  if (i < 0) {
    throw std::invalid_argument("SweepResults: heuristic not in sweep: " + name);
  }
  return i;
}

int SweepResults::try_heuristic_index(const std::string& name) const noexcept {
  for (std::size_t i = 0; i < heuristics.size(); ++i) {
    if (heuristics[i] == name) return static_cast<int>(i);
  }
  return -1;
}

bool scenario_relative_diff(const ScenarioOutcomes& h, const ScenarioOutcomes& ref,
                            double& out) {
  if (h.size() != ref.size()) {
    throw std::invalid_argument("scenario_relative_diff: trial count mismatch");
  }
  double sum_h = 0.0, sum_ref = 0.0;
  int used = 0;
  for (std::size_t t = 0; t < h.size(); ++t) {
    if (!h[t].success || !ref[t].success) continue;
    sum_h += static_cast<double>(h[t].makespan);
    sum_ref += static_cast<double>(ref[t].makespan);
    ++used;
  }
  if (used == 0) return false;
  const double mh = sum_h / used;
  const double mref = sum_ref / used;
  const double denom = std::min(mh, mref);
  if (denom <= 0.0) return false;
  out = (mh - mref) / denom;
  return true;
}

HeuristicSummary summarize(const std::string& name,
                           const std::vector<ScenarioOutcomes>& h,
                           const std::vector<ScenarioOutcomes>& ref) {
  if (h.size() != ref.size()) {
    throw std::invalid_argument("summarize: scenario count mismatch");
  }
  HeuristicSummary s;
  s.name = name;

  std::vector<double> diffs;
  long wins = 0, wins30 = 0, trials = 0;
  for (std::size_t sc = 0; sc < h.size(); ++sc) {
    double d;
    if (scenario_relative_diff(h[sc], ref[sc], d)) {
      diffs.push_back(d);
    }
    for (std::size_t t = 0; t < h[sc].size(); ++t) {
      ++trials;
      const auto& mine = h[sc][t];
      const auto& theirs = ref[sc][t];
      if (!mine.success) {
        ++s.fails;
        continue;  // a failed trial can neither win nor be within 30%
      }
      const bool ref_failed = !theirs.success;
      if (ref_failed || mine.makespan <= theirs.makespan) ++wins;
      if (ref_failed ||
          static_cast<double>(mine.makespan) <=
              1.3 * static_cast<double>(theirs.makespan)) {
        ++wins30;
      }
    }
  }

  s.scenarios_compared = static_cast<int>(diffs.size());
  if (!diffs.empty()) {
    double mean = 0.0;
    for (double d : diffs) mean += d;
    mean /= static_cast<double>(diffs.size());
    s.pct_diff = 100.0 * mean;
    double var = 0.0;
    for (double d : diffs) var += (d - mean) * (d - mean);
    var /= static_cast<double>(diffs.size());
    s.stdv = std::sqrt(var);
  }
  if (trials > 0) {
    s.pct_wins = 100.0 * static_cast<double>(wins) / static_cast<double>(trials);
    s.pct_wins30 = 100.0 * static_cast<double>(wins30) / static_cast<double>(trials);
  }
  return s;
}

}  // namespace tcgrid::expt
