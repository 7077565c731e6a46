#include "api/sink.hpp"

#include <ostream>
#include <stdexcept>

#include "api/spec.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace tcgrid::api {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    throw std::runtime_error("cannot open result sink file: " + path);
  }
  return file;
}

// ---------------------------------------------------------- AggregateSink ----

void AggregateSink::begin(const ExperimentSpec& spec,
                          const std::vector<platform::ScenarioParams>& scenarios,
                          const std::vector<std::string>& heuristics) {
  results_ = expt::SweepResults{};
  results_.heuristics = heuristics;
  results_.scenarios = scenarios;
  results_.outcomes.assign(heuristics.size(),
                           std::vector<expt::ScenarioOutcomes>(scenarios.size()));
  for (auto& per_scenario : results_.outcomes) {
    for (auto& trials : per_scenario) {
      trials.resize(static_cast<std::size_t>(spec.trials));
    }
  }
}

void AggregateSink::consume(const ResultRow& row) {
  results_.outcomes[row.heuristic][row.scenario][static_cast<std::size_t>(row.trial)] =
      expt::TrialOutcome{row.result->success, row.result->makespan};
}

// ---------------------------------------------------------------- CsvSink ----

const std::vector<std::string>& CsvSink::header() {
  static const std::vector<std::string> h = {
      "heuristic", "family",   "m",        "ncom",      "wmin",
      "scenario_seed", "trial", "success", "makespan",  "restarts",
      "reconfigs", "idle_slots"};
  return h;
}

void CsvSink::begin(const ExperimentSpec&,
                    const std::vector<platform::ScenarioParams>&,
                    const std::vector<std::string>&) {
  // One header even when the sink accumulates several runs (e.g. a sweep
  // per availability family streaming into one file).
  if (header_written_) return;
  header_written_ = true;
  bool first = true;
  for (const auto& col : header()) {
    *out_ << (first ? "" : ",") << col;
    first = false;
  }
  *out_ << '\n';
}

void CsvSink::consume(const ResultRow& row) {
  const auto& p = *row.params;
  const auto& r = *row.result;
  // Both string fields pass through RFC-4180 quoting: registry names are
  // caller-chosen, so commas, quotes and newlines must round-trip, not
  // corrupt the stream.
  *out_ << util::CsvWriter::escape(*row.name) << ','
        << util::CsvWriter::escape(row.family != nullptr ? *row.family : std::string())
        << ',' << p.m << ',' << p.ncom << ',' << p.wmin << ',' << p.seed << ','
        << row.trial << ',' << (r.success ? '1' : '0') << ',' << r.makespan << ','
        << r.total_restarts << ',' << r.total_reconfigurations << ',' << r.idle_slots
        << '\n';
}

void CsvSink::finish() {
  out_->flush();
  if (out_->fail()) {
    throw std::runtime_error("CsvSink: write failure (disk full or closed stream?)");
  }
}

// -------------------------------------------------------------- JsonlSink ----

std::string row_line(std::size_t scenario, int trial, std::size_t heuristic_index,
                     const std::string& heuristic, const std::string& family,
                     const platform::ScenarioParams& params,
                     const sim::SimulationResult& r) {
  // Hand-rolled append (no Value tree): rows are the hot emission path and
  // their byte layout is a documented contract — keep it explicit.
  std::string out;
  out.reserve(192);
  out += "{\"scenario\":";
  out += std::to_string(scenario);
  out += ",\"trial\":";
  out += std::to_string(trial);
  out += ",\"h\":";
  out += std::to_string(heuristic_index);
  out += ",\"heuristic\":";
  util::json::append_quoted(heuristic, out);
  out += ",\"family\":";
  util::json::append_quoted(family, out);
  out += ",\"m\":";
  out += std::to_string(params.m);
  out += ",\"ncom\":";
  out += std::to_string(params.ncom);
  out += ",\"wmin\":";
  out += std::to_string(params.wmin);
  out += ",\"scenario_seed\":";
  out += std::to_string(params.seed);
  out += ",\"success\":";
  out += r.success ? "true" : "false";
  out += ",\"makespan\":";
  out += std::to_string(r.makespan);
  out += ",\"iterations\":";
  out += std::to_string(r.iterations_completed);
  out += ",\"restarts\":";
  out += std::to_string(r.total_restarts);
  out += ",\"reconfigs\":";
  out += std::to_string(r.total_reconfigurations);
  out += ",\"idle_slots\":";
  out += std::to_string(r.idle_slots);
  out += "}";
  return out;
}

void JsonlSink::consume(const ResultRow& row) {
  *out_ << row_line(row.scenario, row.trial, row.heuristic, *row.name,
                    row.family != nullptr ? *row.family : std::string(), *row.params,
                    *row.result)
        << '\n';
}

void JsonlSink::finish() {
  out_->flush();
  if (out_->fail()) {
    throw std::runtime_error("JsonlSink: write failure (disk full or closed stream?)");
  }
}

}  // namespace tcgrid::api
