// Time-slot simulation engine implementing the paper's execution model
// (§III-C). See DESIGN.md §5 for the slot-by-slot semantics and §8 for the
// event-horizon fast-forward loop.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "model/application.hpp"
#include "model/configuration.hpp"
#include "model/holdings.hpp"
#include "platform/availability.hpp"
#include "platform/platform.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace tcgrid::platform {
class Realization;
}

namespace tcgrid::sim {

/// How the master picks which (at most ncom) enrolled UP workers to serve in
/// a slot. The paper does not specify this; Enrollment order matches its
/// Figure 1 walk-through and is the library default. The alternatives exist
/// for the ablation bench.
enum class CommOrder {
  Enrollment,     ///< first enrolled, first served (default)
  FewestFirst,    ///< shortest remaining transfer first
  MostFirst,      ///< longest remaining transfer first
};

struct EngineOptions {
  long slot_cap = 1'000'000;  ///< fail the run if the makespan reaches this
  bool record_trace = false;  ///< keep a per-slot activity trace (costly)
  CommOrder comm_order = CommOrder::Enrollment;
  /// Slots pulled per AvailabilitySource::fill_block call (clamped to
  /// slot_cap). The engine consumes availability in dense blocks instead of
  /// size()+1 virtual calls per slot; any value >= 1 yields the identical
  /// simulation (availability is autonomous, so prefetching it cannot
  /// observe scheduling decisions). Note the prefetch: after run() the
  /// source may have been advanced up to avail_block - 1 slots past the
  /// last simulated slot, so a caller-supplied source should not be reused
  /// to continue the same stream. The default balances the per-block fixed
  /// cost against the prefetch overshoot: sweep-trial makespans are a few
  /// hundred slots, and rows generated past the makespan are the single
  /// largest waste of availability sampling at 256.
  long avail_block = 64;
  /// Event-horizon fast path (DESIGN.md §8): within each availability block
  /// the engine bulk-advances runs of homogeneous slots — compute slots
  /// while every enrolled worker is UP, suspended slots while some are only
  /// RECLAIMED, idle slots with no configuration — consulting the scheduler
  /// only at event slots its Quiescence report does not cover. Results
  /// (counters, iteration stats AND traces) are bit-identical to the
  /// per-slot loop for every scheduler honoring the quiescence contract;
  /// false forces the legacy per-slot loop (ablation baseline).
  bool fast_forward = true;
};

/// Drives one application execution: availability advances slot by slot, the
/// scheduler is consulted at every slot its quiescence contract does not
/// rule out, communications respect the master's ncom bound, and the
/// tightly-coupled computation only progresses in slots where every enrolled
/// worker is UP.
class Engine {
 public:
  Engine(const platform::Platform& platform, const model::Application& app,
         platform::AvailabilitySource& availability, Scheduler& scheduler,
         EngineOptions options = {});

  /// Run against a materialized realization (DESIGN.md §9). The engine
  /// owns a platform::RealizationView and reads it through fill_block like
  /// any other source, so results — counters, iteration stats AND traces —
  /// are bit-identical to a live source built from the same (family, seed,
  /// init). The view extends the realization lazily, so run() can throw
  /// platform::RealizationBudgetExceeded; the engine holds no state worth
  /// salvaging after that (construct a fresh one against a live source and
  /// rerun).
  Engine(const platform::Platform& platform, const model::Application& app,
         platform::Realization& realization, Scheduler& scheduler,
         EngineOptions options = {});

  /// Run to completion (all iterations done) or to the slot cap.
  [[nodiscard]] SimulationResult run();

  /// Activity trace recorded during run() (empty unless record_trace).
  [[nodiscard]] const ActivityTrace& trace() const noexcept { return trace_; }

  /// Number of Scheduler::decide calls made during run() so far
  /// (observability: with fast_forward, quiescent schedulers are consulted
  /// only at event slots).
  [[nodiscard]] long consults() const noexcept { return consults_; }

  /// Execution-strategy tallies of the last run() (reset at each run start).
  /// Observability only — see RunTelemetry for why this is not part of
  /// SimulationResult.
  [[nodiscard]] const RunTelemetry& telemetry() const noexcept { return telem_; }

 private:
  /// What the just-processed slot did (drives fast-forward eligibility).
  enum class Phase : unsigned char {
    Idle,       ///< no configuration in place
    Comm,       ///< at least one transfer progressed
    Stalled,    ///< comm phase, but every pending worker was RECLAIMED
    Compute,    ///< all enrolled workers UP, one coupled compute slot banked
    Suspended,  ///< some enrolled worker RECLAIMED, computation suspended
    Completed,  ///< this compute slot finished the iteration
  };

  // --- per-slot phases -----------------------------------------------------
  void step_slot();
  void refresh_states();
  void process_downs();
  [[nodiscard]] bool consult_needed() const;
  void consult_scheduler();
  void install(const model::Configuration& config);
  void serve_communications();
  void advance_computation();
  void complete_iteration();

  // --- event-horizon fast path (DESIGN.md §8) ------------------------------
  void fast_forward();
  /// Tally one bulk advance that moved slot_ from `before` to its current
  /// value into the given run/slot telemetry pair (no-op for zero-length).
  void note_bulk_advance(long& runs, long& slots, long before);
  void advance_configured_run(Quiescence::Kind kind);
  void advance_comm_run(Quiescence::Kind kind);
  void advance_idle_run(Quiescence::Kind kind);
  void apply_comm_progress(std::size_t q, long slots);
  void refill_block();

  [[nodiscard]] const markov::State* peek_row() const {
    return block_.data() + static_cast<std::size_t>(block_pos_) * states_.size();
  }
  [[nodiscard]] const markov::State* prev_of_peeked() const;
  [[nodiscard]] bool watched_membership_changed(const markov::State* prev,
                                                const markov::State* row) const;
  void crash_down_in_row(const markov::State* row);
  void record_bulk_row(const markov::State* row, bool compute);

  // --- helpers ---------------------------------------------------------
  [[nodiscard]] long comm_remaining(int q) const;
  [[nodiscard]] bool comm_phase_done() const;
  [[nodiscard]] bool all_enrolled_up() const;
  [[nodiscard]] bool any_enrolled_down() const;
  void clear_config();
  void reset_comm_remaining();
  void build_view();
  void record_slot();

  /// Runs on `*owned` and keeps it alive for the engine's lifetime (the
  /// realization overload's view).
  Engine(const platform::Platform& platform, const model::Application& app,
         std::unique_ptr<platform::AvailabilitySource> owned, Scheduler& scheduler,
         EngineOptions options);

  const platform::Platform& platform_;
  const model::Application& app_;
  platform::AvailabilitySource* availability_;
  std::unique_ptr<platform::AvailabilitySource> owned_source_;  ///< or null
  Scheduler& scheduler_;
  EngineOptions options_;

  // dynamic state
  long slot_ = 0;
  std::span<const markov::State> states_;  ///< current row inside block_
  std::vector<markov::State> block_;  ///< [block_slots_ x p] availability buffer
  long block_slots_ = 0;              ///< min(avail_block, slot_cap)
  long block_pos_ = 0;                ///< rows of block_ already consumed
  long block_filled_ = 0;             ///< rows of block_ currently valid
  std::vector<model::Holdings> holdings_;
  model::Configuration config_;
  long compute_total_ = 0;
  long compute_done_ = 0;
  long iteration_start_ = 0;
  int iterations_done_ = 0;
  bool finished_ = false;

  // per-slot action annotations; only maintained when tracing (their sole
  // consumer) is on
  std::vector<Action> actions_;

  // per-row digests over block_, computed in one pass at each refill
  // (fast_forward only). Flags are relative to the previous row, carried
  // across refills through prev_row_.
  std::vector<unsigned char> digest_up_changed_;  ///< UP-membership changed
  std::vector<unsigned char> digest_up_gain_;     ///< some proc joined UP
  std::vector<unsigned char> digest_new_down_;    ///< some proc newly DOWN
  std::vector<markov::State> prev_row_;  ///< last row of the previous block
  bool prev_row_valid_ = false;
  long digest_row_ = 0;  ///< block row of the slot being processed

  // quiescence latch: report of the most recent consult
  const Quiescence* quiesce_ = nullptr;
  long horizon_left_ = 0;           ///< skips still covered by the report
  bool decision_no_change_ = true;  ///< last consult proposed no change
  bool message_completed_ = false;  ///< the per-slot step completed a message
  Phase last_phase_ = Phase::Idle;
  long consults_ = 0;

  // view buffers
  std::vector<long> comm_remaining_buf_;  ///< maintained incrementally;
                                          ///< debug-asserted in build_view
  SchedulerView view_;

  // reusable per-slot buffers (hoisted allocations)
  std::vector<int> pending_;     ///< serve_communications candidates
  std::vector<long> seen_mark_;  ///< per-proc stamp for duplicate detection
  long seen_gen_ = 0;
  std::vector<markov::State> comm_ref_;  ///< enrolled-state pattern of a comm run

  // bookkeeping
  SimulationResult result_;
  IterationStats current_iter_;
  ActivityTrace trace_;
  RunTelemetry telem_;
};

}  // namespace tcgrid::sim
