// Per-run and per-iteration statistics produced by the engine.
#pragma once

#include <vector>

#include "obs/obs.hpp"

namespace tcgrid::sim {

/// Breakdown of a single completed application iteration.
struct IterationStats {
  long start_slot = 0;      ///< slot at which the iteration began
  long end_slot = 0;        ///< slot at which the last compute slot landed
  long comm_slots = 0;      ///< slots with at least one active transfer
  long stalled_slots = 0;   ///< comm-phase slots where every pending worker
                            ///< was RECLAIMED (no transfer progressed)
  long compute_slots = 0;   ///< all-UP compute slots (== W on completion)
  long suspended_slots = 0; ///< compute-phase slots lost to RECLAIMED workers
  int restarts = 0;         ///< aborts due to an enrolled worker going DOWN
  int reconfigurations = 0; ///< voluntary (proactive) configuration switches
};

/// Outcome of one simulation run.
struct SimulationResult {
  bool success = false;          ///< completed all iterations before the cap
  long makespan = 0;             ///< slots used (== cap when !success)
  int iterations_completed = 0;
  std::vector<IterationStats> iterations;  ///< one entry per completed iteration

  long total_restarts = 0;
  long total_reconfigurations = 0;
  long idle_slots = 0;  ///< slots with no configuration in place
};

/// Execution-strategy telemetry for one Engine::run() (Engine::telemetry()).
///
/// Observability ONLY — deliberately NOT part of SimulationResult or
/// IterationStats: the bench digest gates (bench_common.hpp DigestSink)
/// hash every result field and require bit-identity across fast-forward
/// on/off and replay/live, while these tallies are a property of HOW the
/// run executed (per-slot steps vs bulk runs vs replay jumps) and differ
/// structurally between the strategies even though the results agree.
struct RunTelemetry {
  long per_slot_steps = 0;        ///< slots taken by the per-slot loop
  long bulk_runs_comm = 0;        ///< comm-phase bulk advances
  long bulk_runs_configured = 0;  ///< compute/suspended bulk advances
  long bulk_runs_idle = 0;        ///< idle bulk advances
  long bulk_slots_comm = 0;       ///< slots covered by those advances…
  long bulk_slots_configured = 0;
  long bulk_slots_idle = 0;
  long replay_jumps = 0;  ///< bulk advances taken via digest-bitset jumps
  /// Length distribution of every bulk advance (slots per advance).
  obs::LocalHistogram bulk_advance_slots;
};

}  // namespace tcgrid::sim
