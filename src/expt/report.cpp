#include "expt/report.hpp"

#include <algorithm>
#include <set>

namespace tcgrid::expt {

std::vector<HeuristicSummary> summarize_all(const SweepResults& results,
                                            const std::string& reference) {
  const int ref = results.heuristic_index(reference);
  std::vector<HeuristicSummary> out;
  out.reserve(results.heuristics.size());
  for (std::size_t h = 0; h < results.heuristics.size(); ++h) {
    out.push_back(summarize(results.heuristics[h], results.outcomes[h],
                            results.outcomes[static_cast<std::size_t>(ref)]));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const HeuristicSummary& a, const HeuristicSummary& b) {
                     return a.pct_diff < b.pct_diff;
                   });
  return out;
}

util::Table paper_table(const std::vector<HeuristicSummary>& summaries) {
  util::Table table({"Heuristic", "#fails", "%diff", "%wins", "%wins30", "stdv"});
  for (const auto& s : summaries) {
    table.add_row({s.name, std::to_string(s.fails), util::Table::num(s.pct_diff),
                   util::Table::num(s.pct_wins), util::Table::num(s.pct_wins30),
                   util::Table::num(s.stdv)});
  }
  return table;
}

Figure2Series figure2_series(const SweepResults& results, const std::string& reference) {
  const auto ref = static_cast<std::size_t>(results.heuristic_index(reference));

  std::set<long> wmins;
  for (const auto& p : results.scenarios) wmins.insert(p.wmin);

  Figure2Series series;
  for (std::size_t h = 0; h < results.heuristics.size(); ++h) {
    auto& points = series[results.heuristics[h]];
    for (long wmin : wmins) {
      double sum = 0.0;
      int used = 0;
      for (std::size_t sc = 0; sc < results.scenarios.size(); ++sc) {
        if (results.scenarios[sc].wmin != wmin) continue;
        double d;
        if (scenario_relative_diff(results.outcomes[h][sc], results.outcomes[ref][sc],
                                   d)) {
          sum += d;
          ++used;
        }
      }
      if (used > 0) points.emplace_back(wmin, sum / used);
    }
  }
  return series;
}

util::Table figure2_table(const Figure2Series& series) {
  std::set<long> wmins;
  for (const auto& [name, points] : series) {
    for (const auto& [wmin, value] : points) wmins.insert(wmin);
  }

  std::vector<std::string> header{"wmin"};
  for (const auto& [name, points] : series) header.push_back(name);
  util::Table table(std::move(header));

  for (long wmin : wmins) {
    std::vector<std::string> row{std::to_string(wmin)};
    for (const auto& [name, points] : series) {
      auto it = std::find_if(points.begin(), points.end(),
                             [&](const auto& p) { return p.first == wmin; });
      row.push_back(it == points.end() ? "-" : util::Table::num(it->second, 3));
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace tcgrid::expt
