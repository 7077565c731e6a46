// The ONE options struct of the experiment facade: engine, realization,
// estimator, availability and execution knobs in one block, from which the
// engine view (sim::EngineOptions) is derived at the point of use.
#pragma once

#include <cstddef>
#include <cstdint>

#include "platform/availability.hpp"
#include "sim/engine.hpp"

namespace tcgrid::api {

struct Options {
  // --- simulation engine ---------------------------------------------------
  long slot_cap = 1'000'000;  ///< fail a run when its makespan reaches this
  sim::CommOrder comm_order = sim::CommOrder::Enrollment;  ///< master service order
  bool record_trace = false;  ///< keep per-slot activity traces (costly)
  long avail_block = 64;      ///< slots per availability fill_block pull; any
                              ///< value >= 1 yields identical simulations
  bool fast_forward = true;   ///< event-horizon engine loop (DESIGN.md §8);
                              ///< results are bit-identical either way —
                              ///< false forces the legacy per-slot loop
                              ///< (ablation baseline)

  // --- shared availability realizations (DESIGN.md §9) ---------------------
  /// Peak bytes one materialized availability realization may occupy during
  /// a sweep. Session::run materializes each (scenario, trial) realization
  /// once — per-worker run-length intervals plus the engine's digest
  /// bitsets — and replays it to every heuristic instead of regenerating
  /// the stream per run. A realization that would outgrow this budget is
  /// dropped and the unit falls back to live generation (bit-identical
  /// results either way — enforced by tests and the bench_sweep digest
  /// check). 0 disables sharing entirely (every run generates live), which
  /// is the ablation baseline bench_sweep compares against.
  std::size_t realization_budget = 64ull << 20;  ///< 64 MiB

  // --- estimator -----------------------------------------------------------
  /// Truncation precision of the §V series. Every estimator a Session builds
  /// resolves through the session's one markov::ChainStatsStore (DESIGN.md
  /// §10), which is built with this eps.
  double eps = 1e-6;

  // --- availability --------------------------------------------------------
  platform::InitialStates init = platform::InitialStates::Stationary;

  // --- execution -----------------------------------------------------------
  std::size_t threads = 0;   ///< worker threads for sweeps (0 = hardware)
  std::uint64_t seed = 42;   ///< master seed for scenario-grid derivation

  /// The engine view of these options. `force_trace` additionally turns on
  /// trace recording (used when a caller passes a trace out-parameter).
  [[nodiscard]] sim::EngineOptions engine(bool force_trace = false) const {
    sim::EngineOptions e;
    e.slot_cap = slot_cap;
    e.record_trace = record_trace || force_trace;
    e.comm_order = comm_order;
    e.avail_block = avail_block;
    e.fast_forward = fast_forward;
    return e;
  }
};

}  // namespace tcgrid::api
