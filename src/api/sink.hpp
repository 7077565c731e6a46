// Streaming result sinks: where completed trial outcomes go.
//
// A Session streams each finished (heuristic, scenario, trial) outcome to its
// sinks as soon as it completes instead of materializing the full
// outcomes[h][scenario][trial] tensor. Sinks compose: run one sweep, feed an
// in-memory aggregate AND a CSV file AND a JSONL log in one pass.
//
// Thread-safety contract (see also Session): `begin` and `finish` are called
// exactly once, from the thread invoking Session::run. `consume` may be
// invoked from worker threads, but calls are SERIALIZED by the session under
// an internal mutex — a sink never sees two concurrent consume() calls, so
// plain (unsynchronized) sink state is safe.
//
// consume() MUST NOT throw: it runs inside thread-pool tasks, which
// terminate the process on escaping exceptions (see util/thread_pool.hpp).
// Record the failure in the sink and report it from finish(), which runs on
// the Session::run caller's thread and may throw (the file sinks do this for
// stream write failures).
//
// Row ORDER across scenarios is completion order and therefore depends on
// thread scheduling; the (heuristic, scenario, trial) COORDINATES and result
// values are deterministic. Index-addressed sinks (AggregateSink) are fully
// thread-count independent; streamed files (CSV/JSONL) carry the coordinates
// in every row, so sort before diffing runs.
#pragma once

#include <iosfwd>
#include <fstream>
#include <string>
#include <vector>

#include "expt/metrics.hpp"
#include "platform/scenario.hpp"
#include "sim/stats.hpp"

namespace tcgrid::api {

struct ExperimentSpec;

/// Open `path` for writing, throwing std::runtime_error on failure (so file
/// sinks fail at construction, not silently after an hours-long sweep).
[[nodiscard]] std::ofstream open_or_throw(const std::string& path);

/// One completed simulation, streamed to sinks as soon as it finishes.
struct ResultRow {
  std::size_t heuristic = 0;  ///< index into the spec's resolved heuristics
  std::size_t scenario = 0;   ///< index into the spec's scenario population
  int trial = 0;
  const std::string* name = nullptr;              ///< heuristic name
  const std::string* family = nullptr;            ///< availability-family name
  const platform::ScenarioParams* params = nullptr;  ///< scenario identity
  const sim::SimulationResult* result = nullptr;  ///< full simulation outcome
};

/// One completed (scenario, trial, heuristic) outcome as a JSONL line (no
/// trailing newline). Fixed key order, deterministic bytes: the one row
/// format that JsonlSink, the serve checkpoint and the serve wire share.
[[nodiscard]] std::string row_line(std::size_t scenario, int trial,
                                   std::size_t heuristic_index,
                                   const std::string& heuristic,
                                   const std::string& family,
                                   const platform::ScenarioParams& params,
                                   const sim::SimulationResult& result);

/// Consumer of streamed trial outcomes.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Called once, before any result, with the resolved experiment shape.
  virtual void begin(const ExperimentSpec& spec,
                     const std::vector<platform::ScenarioParams>& scenarios,
                     const std::vector<std::string>& heuristics) {
    (void)spec, (void)scenarios, (void)heuristics;
  }

  /// Called once per completed trial; serialized, possibly on worker threads.
  virtual void consume(const ResultRow& row) = 0;

  /// Called once after the last result.
  virtual void finish() {}
};

/// In-memory aggregation into the expt::SweepResults tensor, for the
/// paper-style reports (summarize_all, figure2_series).
class AggregateSink final : public ResultSink {
 public:
  void begin(const ExperimentSpec& spec,
             const std::vector<platform::ScenarioParams>& scenarios,
             const std::vector<std::string>& heuristics) override;
  void consume(const ResultRow& row) override;

  [[nodiscard]] const expt::SweepResults& results() const noexcept { return results_; }
  /// Move the aggregate out (the sink is empty afterwards).
  [[nodiscard]] expt::SweepResults take() && { return std::move(results_); }

 private:
  expt::SweepResults results_;
};

/// Streams one CSV row per trial: heuristic, availability family, scenario
/// cell (m, ncom, wmin, scenario_seed), trial, success, makespan and the
/// per-run restart/reconfiguration/idle counters.
class CsvSink final : public ResultSink {
 public:
  /// Write to an external stream (kept open; caller owns lifetime).
  explicit CsvSink(std::ostream& out) : out_(&out) {}
  /// Write to a file, truncating it. Throws std::runtime_error if the file
  /// cannot be opened (a sweep must not run for hours into a missing sink).
  explicit CsvSink(const std::string& path) : file_(open_or_throw(path)), out_(&file_) {}

  void begin(const ExperimentSpec& spec,
             const std::vector<platform::ScenarioParams>& scenarios,
             const std::vector<std::string>& heuristics) override;
  void consume(const ResultRow& row) override;
  void finish() override;

  /// Column names, in order.
  [[nodiscard]] static const std::vector<std::string>& header();

 private:
  std::ofstream file_;
  std::ostream* out_;
  bool header_written_ = false;  ///< one header even across several runs
};

/// Streams one row_line per trial — the shape sharding and checkpointing
/// consumers want (append-only, order-independent, mergeable).
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}
  /// Throws std::runtime_error if the file cannot be opened.
  explicit JsonlSink(const std::string& path) : file_(open_or_throw(path)), out_(&file_) {}

  void consume(const ResultRow& row) override;
  void finish() override;

 private:
  std::ofstream file_;
  std::ostream* out_;
};

}  // namespace tcgrid::api
