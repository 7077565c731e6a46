// Shared plumbing of the tcgrid benchmark (see README.md): arguments,
// clocks, sample statistics, the result report and the output digests.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/api.hpp"

namespace tcgbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch directory for sockets and checkpoints
  std::string serve_bin;  ///< the tcgrid_serve daemon binary
};

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] double median(std::vector<double> v);

/// The tail rule: the highest percentile that still has at least 10
/// samples above it. With n >= 11 sorted samples that is the value at
/// index n - 11, i.e. the (n - 10) / n quantile. Below 11 samples no such
/// percentile exists and the maximum is reported (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// Peak resident set (VmHWM) of a process, in MB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(long pid);

/// Resets this process's peak resident set to its current size; false
/// where the kernel does not allow it.
bool reset_peak_rss();

/// One line naming the host: core count, the SIMD flags the roadmap's
/// optimisations target, and the build type.
[[nodiscard]] std::string host_line();

[[nodiscard]] std::uint64_t fnv1a(const std::string& s);

/// Per-row hash over the coordinates and every per-trial counter: the same
/// fold as the repo's bench DigestSink, so digests are comparable with the
/// bench artifacts. XOR of these over a sweep is order independent.
[[nodiscard]] std::uint64_t row_hash(std::size_t heuristic, std::size_t scenario,
                                     int trial, const tcgrid::sim::SimulationResult& r);

/// Metrics of one run, printed as the final JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Human-readable note printed before the JSON line (tail percentiles,
  /// sample counts, digests).
  void note(const std::string& line);
  /// Prints the notes and the result line; returns the process exit code.
  int finish(bool correct, std::size_t attempted, std::size_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
};

/// Adds `op_p50_ms` and `op_tail_ms` from per-operation latencies in
/// seconds, and notes the tail percentile and sample count. An operation
/// is a (scenario, trial) unit in the sweeps and a job in the serve
/// workloads.
void add_op_latency(Report& report, const std::vector<double>& seconds);

/// Layer split of a traced run (layers.cpp), accumulated by the decorators
/// around AvailabilitySource::fill_block and Scheduler::decide.
struct LayerTimes {
  double platform_setup_s = 0;  ///< scenario make, source + Realization setup
  double fill_s = 0;            ///< AvailabilitySource::fill_block
  double decide_s = 0;          ///< Scheduler::decide
  double estimator_build_s = 0;
  double sched_setup_s = 0;     ///< make_scheduler
  double engine_s = 0;          ///< Engine::run, everything inside
  double engine_fill_s = 0;     ///< part of fill_s inside Engine::run
  double engine_decide_s = 0;   ///< part of decide_s inside Engine::run
  long gen_slots = 0;           ///< slots generated through fill_block
  long gen_proc_slots = 0;      ///< gen_slots x processors
  long decides = 0;
  long sim_slots = 0;           ///< sum of makespans
  long replay_jumps = 0;
  long per_slot_steps = 0;
  long budget_fallbacks = 0;
  std::size_t realization_bytes_peak = 0;
  double wall_s = 0;            ///< traced wall time of the units

  LayerTimes& operator+=(const LayerTimes& o);

  [[nodiscard]] double engine_self_s() const {
    return engine_s - engine_fill_s - engine_decide_s;
  }
  [[nodiscard]] double platform_s() const { return platform_setup_s + fill_s; }
  [[nodiscard]] double sched_s() const {
    return decide_s + estimator_build_s + sched_setup_s;
  }
};

/// Adds every platform./sched./sim./trace. per-layer metric. `untraced_s`
/// is the wall time of the same units run untraced.
void add_layer_metrics(Report& report, const LayerTimes& t, double untraced_s);

/// Adds the markov.* metrics from a session's chain-statistics store.
void add_store_metrics(Report& report, const tcgrid::markov::ChainStatsStore::Counters& c);

/// The per-layer serve.* metrics, all zero on the sweeps.
struct ServeLayer {
  double submit_ms_p50 = 0;
  double first_row_ms_p50 = 0;
  double status_rtt_us_p50 = 0;
  double busy_frac = 0;
  double checkpoint_mb = 0;
  double duplicate_commits = 0;
  double redispatched = 0;
};
void add_serve_metrics(Report& report, const ServeLayer& s);

/// Runs every heuristic of one (scenario, trial) unit the way
/// api::Session::run_unit does, from outside the library, with timing
/// decorators on the availability source and the scheduler, adding into
/// `times` (everything but wall_s, which the caller owns). Results are
/// bit-identical to Session::run_unit: the benchmark checks the digests.
/// Like a Session's per-thread cache, one instance serves one thread.
class TracedUnits {
 public:
  TracedUnits(const tcgrid::api::Options& options, LayerTimes& times);
  ~TracedUnits();
  TracedUnits(const TracedUnits&) = delete;
  TracedUnits& operator=(const TracedUnits&) = delete;

  [[nodiscard]] std::vector<tcgrid::sim::SimulationResult> run_unit(
      const tcgrid::api::ExperimentSpec& spec, const tcgrid::platform::ScenarioParams& params,
      int trial);

 private:
  struct Entry;
  using Key = std::tuple<std::uint64_t, int, int, long, int, int>;
  tcgrid::api::Options options_;
  std::shared_ptr<tcgrid::markov::ChainStatsStore> store_;
  std::map<Key, std::unique_ptr<Entry>> entries_;
  LayerTimes& times_;
};

int run_sweep(const Args& args);
int run_serve(const Args& args);

}  // namespace tcgbench
