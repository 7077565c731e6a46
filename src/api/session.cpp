#include "api/session.hpp"

#include <atomic>
#include <cassert>
#include <optional>

#include "obs/obs.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace tcgrid::api {

namespace {

/// Registered-once handles for the session/engine instrument sites (the
/// registration takes the registry mutex; the handles never do).
struct SessionMetrics {
  obs::Histogram unit_us;        ///< whole (scenario, trial) unit
  obs::Histogram claim_us;       ///< entry_for: cache hit or estimator build
  obs::Histogram run_replay_us;  ///< one engine run, replayed realization
  obs::Histogram run_live_us;    ///< one engine run, live generation
  obs::Histogram emit_us;        ///< sink-emit section (incl. mutex wait)
  obs::Counter budget_fallbacks; ///< units dropped to live by budget overflow
};

SessionMetrics& session_metrics() {
  static SessionMetrics m = [] {
    obs::Registry& reg = obs::Registry::instance();
    return SessionMetrics{
        reg.histogram("tcgrid_session_unit_us"),
        reg.histogram("tcgrid_session_claim_us"),
        reg.histogram("tcgrid_session_run_us", {{"mode", "replay"}}),
        reg.histogram("tcgrid_session_run_us", {{"mode", "live"}}),
        reg.histogram("tcgrid_session_emit_us"),
        reg.counter("tcgrid_session_budget_fallbacks_total"),
    };
  }();
  return m;
}

struct EngineMetrics {
  obs::Counter consults;
  obs::Counter per_slot_steps;
  obs::Counter runs_comm, runs_configured, runs_idle;
  obs::Counter slots_comm, slots_configured, slots_idle;
  obs::Histogram bulk_advance_slots;
  obs::Counter builds_reuse, builds_memo_hit, builds_fresh;
  obs::Gauge avail_kernel_info;  ///< 1, labelled with the availability SIMD kernel
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m = [] {
    obs::Registry& reg = obs::Registry::instance();
    return EngineMetrics{
        reg.counter("tcgrid_engine_consults_total"),
        reg.counter("tcgrid_engine_per_slot_steps_total"),
        reg.counter("tcgrid_engine_bulk_runs_total", {{"kind", "comm"}}),
        reg.counter("tcgrid_engine_bulk_runs_total", {{"kind", "configured"}}),
        reg.counter("tcgrid_engine_bulk_runs_total", {{"kind", "idle"}}),
        reg.counter("tcgrid_engine_bulk_slots_total", {{"kind", "comm"}}),
        reg.counter("tcgrid_engine_bulk_slots_total", {{"kind", "configured"}}),
        reg.counter("tcgrid_engine_bulk_slots_total", {{"kind", "idle"}}),
        reg.histogram("tcgrid_engine_bulk_advance_slots"),
        reg.counter("tcgrid_sched_builds_total", {{"path", "reuse"}}),
        reg.counter("tcgrid_sched_builds_total", {{"path", "memo_hit"}}),
        reg.counter("tcgrid_sched_builds_total", {{"path", "fresh"}}),
        reg.gauge("tcgrid_avail_kernel_info",
                  {{"kernel", std::string(util::to_string(util::simd_kernel()))}}),
    };
  }();
  return m;
}

/// Fold one finished run's RunTelemetry and its scheduler's build tallies
/// into the registry. Covers every engine the session constructs (run_one
/// and run_replayed are the two construction sites shared by run(),
/// run_trial() and the serve workers).
void flush_engine_telemetry(const sim::Engine& engine, const sim::Scheduler& scheduler) {
  if (!obs::enabled()) return;
  const sim::RunTelemetry& t = engine.telemetry();
  EngineMetrics& m = engine_metrics();
  m.consults.inc(static_cast<std::uint64_t>(engine.consults()));
  m.per_slot_steps.inc(static_cast<std::uint64_t>(t.per_slot_steps));
  m.runs_comm.inc(static_cast<std::uint64_t>(t.bulk_runs_comm));
  m.runs_configured.inc(static_cast<std::uint64_t>(t.bulk_runs_configured));
  m.runs_idle.inc(static_cast<std::uint64_t>(t.bulk_runs_idle));
  m.slots_comm.inc(static_cast<std::uint64_t>(t.bulk_slots_comm));
  m.slots_configured.inc(static_cast<std::uint64_t>(t.bulk_slots_configured));
  m.slots_idle.inc(static_cast<std::uint64_t>(t.bulk_slots_idle));
  m.bulk_advance_slots.merge(t.bulk_advance_slots);
  const sched::BuildCounts b = sched::build_counts(scheduler);
  m.builds_reuse.inc(static_cast<std::uint64_t>(b.reuses));
  m.builds_memo_hit.inc(static_cast<std::uint64_t>(b.memo_hits));
  m.builds_fresh.inc(static_cast<std::uint64_t>(b.fresh_builds));
}

}  // namespace

Session::Session(Options options)
    : options_(std::move(options)),
      chain_store_(std::make_shared<markov::ChainStatsStore>(options_.eps)) {
  // The kernel is fixed for the process, so the info gauge is written once
  // per session rather than per run: it is in the scrape before the first
  // run finishes, and again after a registry value reset.
  if (obs::enabled()) engine_metrics().avail_kernel_info.set(1);
}

Session::ScenarioEntry::ScenarioEntry(std::shared_ptr<const scen::PlatformFamily> fam,
                                      const platform::ScenarioParams& params, double eps,
                                      std::shared_ptr<markov::ChainStatsStore> store)
    : family(std::move(fam)),
      scenario(family->make(params)),
      estimator(scenario.platform, scenario.app, eps, std::move(store)) {}

Session::ThreadCache& Session::this_thread_cache() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  // std::map nodes are stable: the returned reference survives other
  // threads inserting their own caches.
  return caches_[std::this_thread::get_id()];
}

Session::ScenarioEntry& Session::entry_for(const scen::ScenarioSpace& space,
                                           const platform::ScenarioParams& params) {
  return entry_for(scen::platform_family(space.platform), params);
}

Session::ScenarioEntry& Session::entry_for(
    std::shared_ptr<const scen::PlatformFamily> family,
    const platform::ScenarioParams& params) {
  ThreadCache& cache = this_thread_cache();
  const Key key{family.get(),  params.seed, params.m, params.ncom,
                params.wmin,   params.p,    params.iterations};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, std::make_unique<ScenarioEntry>(std::move(family), params,
                                                            options_.eps, chain_store_))
             .first;
  }
  return *it->second;
}

void Session::clear_caches() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  caches_.clear();
  // The estimators holding the old store are gone with the caches; a fresh
  // store releases its survival tables and set entries (the bulk of a hot
  // sweep's estimator memory).
  chain_store_ = std::make_shared<markov::ChainStatsStore>(options_.eps);
}

void Session::drop_estimator_caches() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  // Estimators go, the store stays: reconstruction re-interns every chain
  // against the retained entries instead of recomputing them.
  caches_.clear();
}

std::shared_ptr<markov::ChainStatsStore> Session::current_store() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return chain_store_;
}

markov::ChainStatsStore::Counters Session::chain_store_counters() {
  return current_store()->counters();
}

std::size_t Session::chain_store_bytes() { return current_store()->bytes(); }

std::size_t Session::cached_entries() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  std::size_t n = 0;
  for (const auto& [tid, cache] : caches_) n += cache.size();
  return n;
}

const platform::Scenario& Session::scenario_for(const platform::ScenarioParams& params) {
  return entry_for(scen::ScenarioSpace{}, params).scenario;
}

sim::SimulationResult Session::run_one(const Options& options,
                                       const scen::AvailabilityFamily& family,
                                       const platform::Scenario& scenario,
                                       const sched::Estimator& estimator,
                                       std::string_view heuristic, int trial,
                                       sim::ActivityTrace* trace) {
  // The paired-trial seeds (api::trial_seed / scheduler_seed): every
  // heuristic of a trial faces the same stream; other spaces swap only the
  // availability law.
  const auto availability = family.make_source(
      scenario.platform, trial_seed(scenario.params, trial), options.init);
  auto scheduler = sched::make_scheduler(heuristic, estimator,
                                         scheduler_seed(scenario.params, trial));
  sim::Engine engine(scenario.platform, scenario.app, *availability, *scheduler,
                     options.engine(trace != nullptr));
  sim::SimulationResult result;
  {
    const obs::ScopedTimer timer(session_metrics().run_live_us);
    result = engine.run();
  }
  flush_engine_telemetry(engine, *scheduler);
  if (trace != nullptr) *trace = engine.trace();
  return result;
}

sim::SimulationResult Session::run_replayed(const Options& options,
                                            platform::Realization& realization,
                                            const platform::Scenario& scenario,
                                            const sched::Estimator& estimator,
                                            std::string_view heuristic, int trial) {
  // Scheduler seeding is identical to run_one: only where availability rows
  // come from differs, so replayed runs are bit-identical to live ones.
  auto scheduler = sched::make_scheduler(heuristic, estimator,
                                         scheduler_seed(scenario.params, trial));
  sim::Engine engine(scenario.platform, scenario.app, realization, *scheduler,
                     options.engine(false));
  // Timed manually rather than via ScopedTimer: engine.run() can throw
  // RealizationBudgetExceeded, and an aborted run's partial duration would
  // pollute the replay latency series (the caller re-runs it live).
  const bool metered = obs::enabled();
  const std::uint64_t t0 = metered ? obs::steady_now_us() : 0;
  sim::SimulationResult result = engine.run();
  if (metered) {
    session_metrics().run_replay_us.observe(obs::steady_now_us() - t0);
  }
  flush_engine_telemetry(engine, *scheduler);
  return result;
}

sim::SimulationResult Session::run_trial(const platform::ScenarioParams& params,
                                         std::string_view heuristic, int trial,
                                         sim::ActivityTrace* trace) {
  return run_trial(scen::ScenarioSpace{}, params, heuristic, trial, trace);
}

sim::SimulationResult Session::run_trial(const scen::ScenarioSpace& space,
                                         const platform::ScenarioParams& params,
                                         std::string_view heuristic, int trial,
                                         sim::ActivityTrace* trace) {
  if (!sched::is_heuristic_name(heuristic)) {
    throw std::invalid_argument("Session::run_trial: unknown heuristic '" +
                                std::string(heuristic) + "'");
  }
  const auto availability = scen::availability_family(space.availability);
  const ScenarioEntry& entry = entry_for(space, params);
  return run_one(options_, *availability, entry.scenario, entry.estimator, heuristic,
                 trial, trace);
}

sim::SimulationResult Session::run_custom(const platform::Platform& platform,
                                          const model::Application& app,
                                          platform::AvailabilitySource& availability,
                                          sim::Scheduler& scheduler,
                                          sim::ActivityTrace* trace) const {
  return run_custom(options_, platform, app, availability, scheduler, trace);
}

sim::SimulationResult Session::run_custom(const Options& options,
                                          const platform::Platform& platform,
                                          const model::Application& app,
                                          platform::AvailabilitySource& availability,
                                          sim::Scheduler& scheduler,
                                          sim::ActivityTrace* trace) {
  sim::Engine engine(platform, app, availability, scheduler,
                     options.engine(trace != nullptr));
#ifndef NDEBUG
  const long start_pos = availability.position();
#endif
  sim::SimulationResult result = engine.run();
#ifndef NDEBUG
  // The documented post-run contract: the engine consumed whole avail_block
  // prefetch batches, so the source sits past the last simulated slot by
  // less than one block (result.makespan is slot_cap for failed runs, i.e.
  // always the number of simulated slots).
  const long consumed = availability.position() - start_pos;
  const long block = std::min(options.avail_block, options.slot_cap);
  assert(consumed >= result.makespan && consumed < result.makespan + block &&
         "run_custom: source position outside the documented prefetch window");
#endif
  if (trace != nullptr) *trace = engine.trace();
  return result;
}

std::vector<sim::SimulationResult> Session::run_unit(
    const Options& options, const scen::AvailabilityFamily& availability,
    const std::shared_ptr<const scen::PlatformFamily>& platform_family,
    const platform::ScenarioParams& params,
    const std::vector<std::string>& heuristics, int trial) {
  // Unit span + latency breakdown: claim (estimator cache hit or build) →
  // realize/replay per heuristic → the whole unit. Tracer fields identify
  // the unit; the histograms aggregate across all units.
  obs::Span span("unit");
  span.field("seed", params.seed);
  span.field("m", params.m);
  span.field("ncom", params.ncom);
  span.field("wmin", params.wmin);
  span.field("trial", trial);
  const bool metered = obs::enabled();
  const std::uint64_t t_start = metered ? obs::steady_now_us() : 0;

  // The scenario and estimator come from the calling thread's private
  // cache: every heuristic of the unit (and any further unit of the same
  // scenario this thread picks up) reuses one warm, non-thread-safe
  // estimator without locking. clear_caches() releases the entries.
  ScenarioEntry& entry = entry_for(platform_family, params);
  if (metered) {
    const std::uint64_t claim_us = obs::steady_now_us() - t_start;
    session_metrics().claim_us.observe(claim_us);
    span.field("claim_us", claim_us);
  }

  std::optional<platform::Realization> realization;
  if (options.realization_budget > 0) {
    realization.emplace(
        availability.make_source(entry.scenario.platform,
                                 trial_seed(entry.scenario.params, trial),
                                 options.init),
        options.realization_budget);
  }
  std::vector<sim::SimulationResult> results(heuristics.size());
  std::size_t replayed = 0;
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    if (realization.has_value()) {
      // Last consumer: whatever this run needs beyond the already
      // materialized prefix will never be replayed, so stop recording —
      // the engine's view continues live on the realization's own source
      // past the frontier (bit-identical stream continuation). With a single
      // heuristic this degrades sharing to plain live generation, which is
      // exactly right.
      if (h + 1 == heuristics.size()) realization->freeze();
      try {
        results[h] = run_replayed(options, *realization, entry.scenario,
                                  entry.estimator, heuristics[h], trial);
        ++replayed;
        continue;
      } catch (const platform::RealizationBudgetExceeded&) {
        // This trial's timeline outgrew the budget: drop the artifact and
        // fall back to live generation for the whole unit (including
        // re-running the interrupted heuristic — results are pure
        // functions of the seeds, so nothing is lost).
        realization.reset();
        session_metrics().budget_fallbacks.inc();
        span.field("budget_fallback", true);
      }
    }
    results[h] = run_one(options, availability, entry.scenario, entry.estimator,
                         heuristics[h], trial, nullptr);
  }
  if (metered) {
    session_metrics().unit_us.observe(obs::steady_now_us() - t_start);
  }
  span.field("replayed", static_cast<std::uint64_t>(replayed));
  span.field("live", static_cast<std::uint64_t>(heuristics.size() - replayed));
  return results;
}

Session::RunStats Session::run(const ExperimentSpec& spec,
                               const std::vector<ResultSink*>& sinks,
                               const Progress& progress,
                               const std::atomic<bool>* stop) {
  spec.validate();
  const std::vector<platform::ScenarioParams> scenarios = spec.scenarios();
  const std::vector<std::string>& heuristics = spec.resolved_heuristics();
  const Options& options = spec.options;
  // Resolve the space once for the whole sweep: workers never touch the
  // registry mutex, and a mid-sweep re-registration cannot split the sweep
  // across two worlds.
  const auto avail_family = scen::availability_family(spec.scenario_space.availability);
  const auto plat_family = scen::platform_family(spec.scenario_space.platform);

  for (ResultSink* sink : sinks) sink->begin(spec, scenarios, heuristics);

  // Serializes sink consumption and progress reporting (the documented
  // thread-safety contract); also orders the completion counter.
  std::mutex emit_mutex;
  std::atomic<std::size_t> rows{0};
  std::size_t done = 0;

  // Trial-major execution (DESIGN.md §9): the scheduling unit is one
  // (scenario, trial), enumerated scenario-major so consecutive units share
  // a scenario. Each unit materializes its availability realization once
  // and replays it to every heuristic — the paper's paired comparison made
  // literal: one artifact, 17 consumers — instead of regenerating the
  // stream per heuristic run. Dispatch is chunked by `trials`, so all units
  // of a scenario land on ONE worker: its estimator is built once per
  // scenario (as before this refactor), not once per (scenario, thread).
  const auto trials = static_cast<std::size_t>(spec.trials);
  const std::size_t units = scenarios.size() * trials;

  util::parallel_for(
      units,
      [&](std::size_t u) {
        // Cooperative cancellation at the unit boundary: a raised stop flag
        // skips every not-yet-started unit (in-flight ones finish and still
        // stream — sinks never see a torn unit).
        if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
        const std::size_t sc = u / trials;
        const int trial = static_cast<int>(u % trials);
        const std::vector<sim::SimulationResult> results =
            run_unit(options, *avail_family, plat_family, scenarios[sc], heuristics,
                     trial);
        {
          // One lock hold per unit: the unit's rows reach sinks
          // contiguously, in heuristic order (the documented row-ordering
          // guarantee), and progress ticks once per unit. The timer covers
          // the mutex wait too — emit contention is what it is for.
          const obs::ScopedTimer timer(session_metrics().emit_us);
          const std::lock_guard<std::mutex> lock(emit_mutex);
          for (std::size_t h = 0; h < heuristics.size(); ++h) {
            ResultRow row;
            row.heuristic = h;
            row.scenario = sc;
            row.trial = trial;
            row.name = &heuristics[h];
            row.family = &spec.scenario_space.availability;
            row.params = &scenarios[sc];
            row.result = &results[h];
            for (ResultSink* sink : sinks) sink->consume(row);
          }
          ++done;
          if (progress) progress(done, units);
        }
        rows.fetch_add(heuristics.size(), std::memory_order_relaxed);
      },
      options.threads, trials);

  for (ResultSink* sink : sinks) sink->finish();

  RunStats stats;
  stats.scenarios = scenarios.size();
  stats.rows = rows.load();
  stats.units_total = units;
  stats.units_done = done;
  stats.cancelled = done < units;
  return stats;
}

}  // namespace tcgrid::api
