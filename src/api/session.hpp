// Session: the single entry point for running experiments.
//
// A Session owns the execution machinery the old drivers wired by hand —
// scenario instantiation, estimator construction and reuse, scheduler
// creation, engine setup, worker threads — behind three calls:
//
//   * run(spec, sinks)    — a full factorial sweep, streamed to ResultSinks;
//   * run_trial(...)      — one (scenario, heuristic, trial) paired run;
//   * run_custom(...)     — one run with a caller-supplied availability
//                           source and/or scheduler (scripted traces,
//                           clairvoyant references, ablation schedulers).
//
// Thread-safety contract:
//
//   * sched::Estimator is NOT thread-safe, and estimator cache warmth is the
//     dominant cost of a sweep. The session keeps one estimator cache PER
//     WORKER THREAD, keyed by scenario identity, so an estimator is only
//     ever touched by the thread that built it.
//   * ResultSink::consume and the progress callback may be invoked from
//     worker threads but are serialized under an internal mutex: no two
//     calls ever run concurrently, so unsynchronized sink/callback state is
//     safe.
//   * run_trial / run_custom / scenario_for may be called from any ONE
//     thread at a time; concurrent calls into the same Session from
//     different user threads are serialized by the same per-thread caching
//     (each caller thread gets its own cache).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "api/options.hpp"
#include "api/sink.hpp"
#include "api/spec.hpp"
#include "markov/chain_stats.hpp"
#include "platform/availability.hpp"
#include "platform/realization.hpp"
#include "platform/scenario.hpp"
#include "scen/space.hpp"
#include "sched/estimator.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace tcgrid::api {

class Session {
 public:
  /// Options for single-run calls (run_trial / run_custom) and the defaults
  /// a sweep falls back to. ExperimentSpec::options wins inside run().
  explicit Session(Options options = {});

  /// Progress callback: (units completed, units total), where a unit is one
  /// (scenario, trial) — the sweep's scheduling grain — so a trial-major
  /// sweep reports trials x scenarios steps of smooth progress instead of
  /// one coarse tick per scenario. Serialized with sink consumption (see
  /// the thread-safety contract above).
  using Progress = std::function<void(std::size_t, std::size_t)>;

  struct RunStats {
    std::size_t scenarios = 0;    ///< scenarios simulated
    std::size_t rows = 0;         ///< trial outcomes streamed to sinks
    std::size_t units_total = 0;  ///< (scenario, trial) units in the spec
    std::size_t units_done = 0;   ///< units whose rows reached the sinks
    bool cancelled = false;       ///< the stop flag cut the sweep short
  };

  /// Run the spec, streaming every completed (heuristic, scenario, trial)
  /// outcome to each sink. Validates the spec up front (throws
  /// std::invalid_argument before any simulation starts).
  ///
  /// Cooperative cancellation: when `stop` is non-null, every worker checks
  /// it at (scenario, trial) unit boundaries — a unit already simulating
  /// finishes and its rows still reach the sinks (sinks never see a torn
  /// unit), pending units are skipped. run() then returns early with
  /// `cancelled = true` and the partial counts; the sinks' finish() is
  /// still invoked, so streamed files are flushed and well-formed.
  ///
  /// Execution is TRIAL-MAJOR (DESIGN.md §9): the scheduling unit is one
  /// (scenario, trial). The unit's availability realization is materialized
  /// once (platform::Realization, bounded by options.realization_budget;
  /// budget 0 or overflow falls back to live generation) and every
  /// requested heuristic runs against it on the same worker thread, so the
  /// generation + digest work of a trial is paid once instead of once per
  /// heuristic, and the thread's cached estimator stays warm across the
  /// unit. Results are bit-identical to live generation and independent of
  /// the thread count.
  ///
  /// Row-ordering guarantee for sinks: the rows of one (scenario, trial)
  /// unit arrive CONTIGUOUSLY, in the spec's heuristic order. Across units
  /// the order is completion order (thread-scheduling dependent) — sinks
  /// needing global order sort on the row coordinates (see sink.hpp).
  ///
  /// Sweeps populate the calling worker threads' scenario/estimator caches
  /// (that is what keeps estimators warm across the trials of a scenario);
  /// call clear_caches() between sweeps to release them. The entries are
  /// retained for the WHOLE run — an estimator's survival tables and build
  /// memo are some MBs each once hot — so split very large scenario
  /// populations into cells and clear_caches() between them to bound peak
  /// memory (the cells of a grid are the natural split).
  RunStats run(const ExperimentSpec& spec, const std::vector<ResultSink*>& sinks,
               const Progress& progress = nullptr,
               const std::atomic<bool>* stop = nullptr);

  /// One (scenario, trial) unit — the sweep's scheduling grain — run
  /// standalone: every heuristic in `heuristics` replayed against the
  /// unit's shared materialized realization (budget permitting, with the
  /// same live fallback as run()), returning the results in heuristic
  /// order. This is run()'s per-unit body made public: the serve daemon
  /// schedules units from many concurrent jobs across one fleet and calls
  /// this from its workers. Families arrive pre-resolved (resolve once per
  /// job/sweep; workers stay off the registry mutex). Safe to call
  /// concurrently from many threads — the scenario/estimator cache is per
  /// calling thread, exactly as in run(). `options` supplies the engine
  /// and realization knobs; the estimator eps remains session-level (the
  /// chain store is built once per session with options().eps).
  [[nodiscard]] std::vector<sim::SimulationResult> run_unit(
      const Options& options, const scen::AvailabilityFamily& availability,
      const std::shared_ptr<const scen::PlatformFamily>& platform_family,
      const platform::ScenarioParams& params,
      const std::vector<std::string>& heuristics, int trial);

  /// One paired trial: the availability realization is a pure function of
  /// (scenario space, scenario seed, trial), so every heuristic run with the
  /// same arguments faces the identical availability (the paper's paired
  /// comparison). The scenario and its estimator are cached per calling
  /// thread. If `trace` is non-null the engine records the activity trace
  /// into it.
  [[nodiscard]] sim::SimulationResult run_trial(const platform::ScenarioParams& params,
                                                std::string_view heuristic, int trial,
                                                sim::ActivityTrace* trace = nullptr);

  /// run_trial in an explicit scenario space: the platform comes from the
  /// space's platform family, the availability stream from its availability
  /// family (both resolved through the scen registry), while scheduler
  /// seeding and pairing are unchanged. The default space reproduces the
  /// two-argument overload bit for bit.
  [[nodiscard]] sim::SimulationResult run_trial(const scen::ScenarioSpace& space,
                                                const platform::ScenarioParams& params,
                                                std::string_view heuristic, int trial,
                                                sim::ActivityTrace* trace = nullptr);

  /// One run with a caller-supplied availability source and scheduler,
  /// using the session options for the engine knobs. The engine consumes
  /// the source in avail_block prefetch batches, so after the run
  /// `availability.position()` is past the last simulated slot by up to
  /// avail_block - 1 slots of prefetch overshoot (asserted in debug
  /// builds: simulated <= position < simulated + avail_block, relative to
  /// the source's pre-run position). Query position() before reusing a
  /// source; to continue a stream from the exact end of a run, construct a
  /// fresh source instead.
  [[nodiscard]] sim::SimulationResult run_custom(const platform::Platform& platform,
                                                 const model::Application& app,
                                                 platform::AvailabilitySource& availability,
                                                 sim::Scheduler& scheduler,
                                                 sim::ActivityTrace* trace = nullptr) const;

  /// run_custom with per-call option overrides (e.g. the ablation bench
  /// sweeping CommOrder without rebuilding a session).
  [[nodiscard]] static sim::SimulationResult run_custom(
      const Options& options, const platform::Platform& platform,
      const model::Application& app, platform::AvailabilitySource& availability,
      sim::Scheduler& scheduler, sim::ActivityTrace* trace = nullptr);

  /// The cached instantiation of a scenario (platform + application) for the
  /// calling thread. Valid until the session is destroyed.
  [[nodiscard]] const platform::Scenario& scenario_for(const platform::ScenarioParams& params);

  /// Drop every thread's cached scenario/estimator entries and replace the
  /// shared chain-statistics store with a fresh one — the store's survival
  /// tables and set entries are where a long sweep's estimator memory
  /// actually lives. A long-lived session that sweeps many scenario
  /// populations otherwise retains one estimator per (thread, scenario)
  /// forever; call this between sweeps (cells) to bound memory. MUST NOT run
  /// concurrently with run / run_trial / scenario_for — references returned
  /// by those calls are invalidated.
  void clear_caches();

  /// Drop every thread's cached scenario/estimator entries but RETAIN the
  /// shared chain-statistics store: the next run rebuilds estimators whose
  /// every chain interns into a hit and whose set quads are already
  /// memoized. This is the serve daemon's resubmit shape (a new connection
  /// thread, a warm session) isolated as a primitive — bench_sweep's warm
  /// pass drives it to measure cross-request warmth, which within-sweep
  /// counters structurally cannot show (DESIGN.md §10). Same concurrency
  /// contract as clear_caches().
  void drop_estimator_caches();

  /// Observability of the session-shared chain-statistics store (DESIGN.md
  /// §10): distinct chains interned, intern dedup hits, multiset set-stats
  /// entries/hits/misses, published survival entries and resident bytes —
  /// the byte accounting counterpart of Options::realization_budget's
  /// budget, reported alongside cached_entries(). Counters are cumulative
  /// until clear_caches() resets the store. Safe to call from any thread at
  /// any time (see current_store()).
  [[nodiscard]] markov::ChainStatsStore::Counters chain_store_counters();

  /// chain_store_counters().bytes without walking the store: one relaxed
  /// load (ChainStatsStore::bytes), for hot paths such as the serve
  /// daemon's per-unit quota check. Same thread-safety as
  /// chain_store_counters().
  [[nodiscard]] std::size_t chain_store_bytes();

  /// Total cached scenario entries across all threads (observability for
  /// memory monitoring and the clear_caches tests). Same concurrency
  /// contract as clear_caches(): MUST NOT run while run / run_trial /
  /// scenario_for are in flight — worker threads mutate their caches
  /// without the directory mutex this reads sizes under.
  [[nodiscard]] std::size_t cached_entries();

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Point-in-time scrape of the process-wide obs registry (obs::configure
  /// gates whether anything was counted). Session-level so benches and
  /// drivers read engine/session/chain-store series without touching the
  /// registry directly; the serve daemon's `metrics` verb is the same
  /// snapshot over the wire. Safe from any thread at any time.
  [[nodiscard]] static obs::Snapshot scrape() {
    return obs::Registry::instance().snapshot();
  }

 private:
  /// A scenario instantiated together with its estimator (the estimator
  /// holds references into the scenario, so they live and die together).
  /// Holds the platform family it was built by: the cache key uses the
  /// family's object identity, so the entry must keep that object alive
  /// (otherwise a later family could be allocated at the same address and
  /// alias the key).
  struct ScenarioEntry {
    /// `store`: the session's shared chain-statistics store.
    ScenarioEntry(std::shared_ptr<const scen::PlatformFamily> family,
                  const platform::ScenarioParams& params, double eps,
                  std::shared_ptr<markov::ChainStatsStore> store);
    std::shared_ptr<const scen::PlatformFamily> family;
    platform::Scenario scenario;
    sched::Estimator estimator;
  };
  /// Scenario-identity key: the platform family INSTANCE plus every
  /// ScenarioParams field that affects its make(). Object identity, not the
  /// registry name: re-registering a name replaces the family, and a cached
  /// scenario from the old binding must not be served for the new one. (The
  /// availability family never affects the scenario, only the per-trial
  /// stream, so it is not part of the key.)
  using Key =
      std::tuple<const scen::PlatformFamily*, std::uint64_t, int, int, long, int, int>;
  using ThreadCache = std::map<Key, std::unique_ptr<ScenarioEntry>>;

  [[nodiscard]] ScenarioEntry& entry_for(const scen::ScenarioSpace& space,
                                         const platform::ScenarioParams& params);
  /// Overload with the platform family pre-resolved (sweep workers stay off
  /// the registry mutex).
  [[nodiscard]] ScenarioEntry& entry_for(
      std::shared_ptr<const scen::PlatformFamily> family,
      const platform::ScenarioParams& params);
  [[nodiscard]] ThreadCache& this_thread_cache();
  /// The current store, read under the cache mutex: clear_caches()
  /// reassigns it under the same lock, so monitoring threads cannot race
  /// the swap (the store itself is thread-safe).
  [[nodiscard]] std::shared_ptr<markov::ChainStatsStore> current_store();

  /// The availability family arrives pre-resolved: Session::run resolves it
  /// once per sweep (workers stay off the registry mutex), run_trial once
  /// per call (so name re-binding is honored between calls).
  [[nodiscard]] static sim::SimulationResult run_one(
      const Options& options, const scen::AvailabilityFamily& availability,
      const platform::Scenario& scenario, const sched::Estimator& estimator,
      std::string_view heuristic, int trial, sim::ActivityTrace* trace);

  /// One heuristic run replayed against a shared materialized realization
  /// (identical scheduler seeding to run_one; the availability stream comes
  /// from the realization instead of a fresh source). Can throw
  /// platform::RealizationBudgetExceeded while lazily extending the
  /// realization — the caller falls back to run_one.
  [[nodiscard]] static sim::SimulationResult run_replayed(
      const Options& options, platform::Realization& realization,
      const platform::Scenario& scenario, const sched::Estimator& estimator,
      std::string_view heuristic, int trial);

  Options options_;

  /// One store per session, handed to every estimator the session builds
  /// and shared by all pool workers of run(). Replaced wholesale by
  /// clear_caches() — estimators keep their store alive via shared_ptr, so
  /// a reset cannot strand one.
  std::shared_ptr<markov::ChainStatsStore> chain_store_;

  std::mutex cache_mutex_;  ///< guards the per-thread cache directory only
  std::map<std::thread::id, ThreadCache> caches_;
};

}  // namespace tcgrid::api
