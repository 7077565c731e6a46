#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "platform/realization.hpp"

namespace tcgrid::sim {

namespace {

inline bool is_up(markov::State s) noexcept { return s == markov::State::Up; }

}  // namespace

Engine::Engine(const platform::Platform& platform, const model::Application& app,
               platform::AvailabilitySource& availability, Scheduler& scheduler,
               EngineOptions options)
    : Engine(platform, app, &availability, nullptr, scheduler, options) {}

Engine::Engine(const platform::Platform& platform, const model::Application& app,
               platform::Realization& realization, Scheduler& scheduler,
               EngineOptions options)
    : Engine(platform, app, nullptr, &realization, scheduler, options) {}

Engine::Engine(const platform::Platform& platform, const model::Application& app,
               platform::AvailabilitySource* availability,
               platform::Realization* realization, Scheduler& scheduler,
               EngineOptions options)
    : platform_(platform),
      app_(app),
      availability_(availability),
      realization_(realization),
      scheduler_(scheduler),
      options_(options) {
  app_.validate();
  const int avail_size =
      availability_ != nullptr ? availability_->size() : realization_->size();
  if (avail_size != platform_.size()) {
    throw std::invalid_argument("Engine: availability/platform size mismatch");
  }
  if (options_.slot_cap < 1) throw std::invalid_argument("Engine: slot_cap < 1");
  if (options_.avail_block < 1) throw std::invalid_argument("Engine: avail_block < 1");
  // A block never needs to exceed the run length: clamping bounds the buffer
  // (and the prefetch overshoot) by slot_cap however large the option is.
  block_slots_ = std::min(options_.avail_block, options_.slot_cap);
  if (realization_ != nullptr) {
    // Replay windows are RLE expansion plus a copy of precomputed digests.
    // Expansion is no longer much cheaper than live generation: at p = 20 on
    // a 4-core x86-64 host it measures 1.2-1.3 ns per processor-slot against
    // 2.1-2.4 ns for the AVX2 live path (13-14 ns before the SIMD kernels,
    // DESIGN.md §7). A replay window also skips the live path's per-row
    // digest pass, so it is widened to amortize the per-refill run lookups.
    // Any window size yields identical results (the window is a view of an
    // immutable timeline, not a generation step).
    block_slots_ = std::min(std::max(options_.avail_block, 1024L), options_.slot_cap);
  }
  const auto p = static_cast<std::size_t>(platform_.size());
  holdings_.resize(p);
  actions_.resize(p);
  comm_remaining_buf_.resize(p);
  seen_mark_.resize(p, 0);
  block_.resize(p * static_cast<std::size_t>(block_slots_));
  states_ = std::span(block_.data(), p);  // re-pointed every slot
  if (options_.fast_forward) {
    const auto rows = static_cast<std::size_t>(block_slots_);
    digest_up_changed_.resize(rows);
    digest_up_gain_.resize(rows);
    digest_new_down_.resize(rows);
    prev_row_.resize(p);
  }
  if (realization_ != nullptr) {
    row_scratch_.resize(p);
    prev_scratch_.resize(p);
  }
}

SimulationResult Engine::run() {
  result_ = {};
  current_iter_ = {};
  telem_ = {};
  trace_.clear();
  iteration_start_ = 0;
  consults_ = 0;
  // Full re-run reset: a second run() continues a live source's stream (or
  // replays a realization from slot 0) with clean application state.
  finished_ = false;
  iterations_done_ = 0;
  config_ = model::Configuration{};
  compute_total_ = 0;
  compute_done_ = 0;
  std::fill(holdings_.begin(), holdings_.end(), model::Holdings{});
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);

  block_pos_ = block_filled_ = 0;  // (re-)pull from the source's current slot
  block_base_ = 0;
  prev_row_valid_ = false;
  quiesce_ = nullptr;
  horizon_left_ = 0;
  decision_no_change_ = true;
  last_phase_ = Phase::Idle;

  slot_ = 0;
  while (slot_ < options_.slot_cap && !finished_) {
    step_slot();
    if (options_.fast_forward && !finished_) fast_forward();
  }

  result_.iterations_completed = iterations_done_;
  result_.success = finished_;
  result_.makespan = finished_ ? slot_ : options_.slot_cap;
  return result_;
}

void Engine::step_slot() {
  ++telem_.per_slot_steps;
  message_completed_ = false;
  refresh_states();
  // Action annotations only feed the trace; when tracing is off every write
  // to actions_ below is skipped (each site checks record_trace).
  if (options_.record_trace) std::fill(actions_.begin(), actions_.end(), Action::None);

  process_downs();
  if (consult_needed()) consult_scheduler();

  if (!config_.empty()) {
    if (!comm_phase_done()) serve_communications();
    else advance_computation();
  } else {
    ++result_.idle_slots;
    last_phase_ = Phase::Idle;
  }
  record_slot();
  ++slot_;
}

void Engine::refill_block() {
  const std::size_t p = holdings_.size();
  if (realization_ != nullptr && realization_->frozen() &&
      slot_ >= realization_->frontier()) {
    switch_to_live();  // single remaining consumer: stop recording the tail
  }
  if (realization_ != nullptr) {
    // Replay window: rows come from the realization's RLE intervals and the
    // digests from its precomputed bitsets — nothing is generated or
    // re-digested. The window always restarts at the current slot, so it is
    // valid after change-to-change jumps as well as after sequential
    // consumption (the two ways the previous window empties).
    const long base = slot_;
    long hi = std::min(base + block_slots_, options_.slot_cap);
    if (realization_->frozen()) hi = std::min(hi, realization_->frontier());
    assert(base < hi);
    realization_->ensure(hi);
    realization_->expand_rows(base, hi, block_.data());
    block_base_ = base;
    block_filled_ = hi - base;
    block_pos_ = 0;
    if (options_.fast_forward) {
      realization_->copy_digests(base, hi, digest_up_changed_.data(),
                                 digest_up_gain_.data(), digest_new_down_.data());
      if (base > 0) {
        realization_->expand_rows(base - 1, base, prev_row_.data());
        prev_row_valid_ = true;
      } else {
        prev_row_valid_ = false;
      }
    }
    return;
  }
  // Live mode: availability is consumed through the block-stepping contract —
  // one fill_block call (which also advances the source) per avail_block
  // slots, then row-wise consumption, no per-processor virtual dispatch.
  if (options_.fast_forward && block_filled_ > 0) {
    // Keep the outgoing block's last row: the incoming block's first-row
    // digests are relative to it.
    std::copy_n(block_.data() + static_cast<std::size_t>(block_filled_ - 1) * p, p,
                prev_row_.data());
    prev_row_valid_ = true;
  }
  availability_->fill_block(block_.data(), block_slots_);
  block_filled_ = block_slots_;
  block_pos_ = 0;

  if (!options_.fast_forward) return;
  // One pass over the dense [slot][proc] buffer: per-row digests of how the
  // row differs from its predecessor. These are what lets the fast-forward
  // loop classify a whole run of slots without re-reading full rows.
  const markov::State* prev = prev_row_valid_ ? prev_row_.data() : nullptr;
  for (long r = 0; r < block_filled_; ++r) {
    const markov::State* row = block_.data() + static_cast<std::size_t>(r) * p;
    unsigned char chg = 0;
    unsigned char gain = 0;
    unsigned char ndown = 0;
    if (prev == nullptr) {
      chg = gain = ndown = 1;  // no predecessor: be conservative
    } else {
      for (std::size_t q = 0; q < p; ++q) {
        const bool was_up = is_up(prev[q]);
        const bool now_up = is_up(row[q]);
        chg |= static_cast<unsigned char>(was_up != now_up);
        gain |= static_cast<unsigned char>(!was_up && now_up);
        ndown |= static_cast<unsigned char>(row[q] == markov::State::Down &&
                                            prev[q] != markov::State::Down);
      }
    }
    digest_up_changed_[static_cast<std::size_t>(r)] = chg;
    digest_up_gain_[static_cast<std::size_t>(r)] = gain;
    digest_new_down_[static_cast<std::size_t>(r)] = ndown;
    prev = row;
  }
}

void Engine::refresh_states() {
  if (block_pos_ == block_filled_) refill_block();
  states_ = std::span(peek_row(), holdings_.size());
  digest_row_ = block_pos_;
  ++block_pos_;
}

void Engine::process_downs() {
  // Digest shortcut: with no processor NEWLY DOWN this slot, every DOWN
  // processor already crashed at its DOWN transition (crashes are idempotent
  // and a DOWN worker's holdings cannot change), and no enrolled worker can
  // be DOWN (a configuration only ever contains workers that were UP after
  // its install slot, so an enrolled DOWN is always a fresh transition).
  if (options_.fast_forward &&
      !digest_new_down_[static_cast<std::size_t>(digest_row_)]) {
    return;
  }
  // DOWN loses everything, enrolled or not (paper §III-B).
  for (std::size_t q = 0; q < states_.size(); ++q) {
    if (states_[q] == markov::State::Down) holdings_[q].crash();
  }
  if (!config_.empty() && any_enrolled_down()) {
    // Tight coupling: the whole iteration's computation is lost and a new
    // configuration must be selected (paper §III-C).
    ++current_iter_.restarts;
    ++result_.total_restarts;
    clear_config();
  }
}

bool Engine::consult_needed() const {
  // WhileConfigured: the scheduler guarantees "no change" (with no side
  // effects) for as long as the current configuration stays installed, so
  // the consult — view build included — is skipped wholesale. A restart or
  // iteration boundary clears config_ and re-enables consulting.
  return !(options_.fast_forward && !config_.empty() && quiesce_ != nullptr &&
           quiesce_->kind == Quiescence::Kind::WhileConfigured);
}

void Engine::consult_scheduler() {
  build_view();
  ++consults_;
  auto decision = scheduler_.decide(view_);
  quiesce_ = &scheduler_.quiescence();
  horizon_left_ = quiesce_->horizon;
  if (!decision.has_value() || decision->empty()) {
    decision_no_change_ = true;
    return;
  }
  const model::Configuration& cfg = *decision;
  if (cfg == config_) {  // proposing the unchanged config is a no-op
    decision_no_change_ = true;
    return;
  }
  decision_no_change_ = false;

  // Validate the proposal: it is a logic error for a heuristic to enroll a
  // non-UP worker, exceed mu_q, or map a number of tasks != m.
  ++seen_gen_;
  int total = 0;
  for (const auto& a : cfg.assignments()) {
    if (a.proc < 0 || a.proc >= platform_.size()) {
      throw std::logic_error("Engine: configuration names unknown processor");
    }
    if (states_[static_cast<std::size_t>(a.proc)] != markov::State::Up) {
      throw std::logic_error("Engine: configuration enrolls a non-UP worker");
    }
    if (a.tasks < 1 || a.tasks > platform_.proc(a.proc).max_tasks) {
      throw std::logic_error("Engine: task count violates mu_q");
    }
    auto& mark = seen_mark_[static_cast<std::size_t>(a.proc)];
    if (mark == seen_gen_) {
      throw std::logic_error("Engine: duplicate worker in configuration");
    }
    mark = seen_gen_;
    total += a.tasks;
  }
  if (total != app_.num_tasks) {
    throw std::logic_error("Engine: configuration does not map exactly m tasks");
  }
  install(cfg);
}

void Engine::install(const model::Configuration& cfg) {
  const bool had_config = !config_.empty();
  if (had_config) {
    // Voluntary (proactive) switch: any partially completed computation is
    // lost.
    ++current_iter_.reconfigurations;
    ++result_.total_reconfigurations;
  }
  config_ = cfg;
  // A worker not (re-)enrolled in the new configuration loses its task data
  // and any in-flight transfer — "any interrupted communication must be
  // resumed from scratch if the worker ... was removed from the
  // configuration", and a re-enrolled worker "needs to receive task data ...
  // even if Pq had been enrolled at time t' < t but was un-enrolled since
  // then" (§III-C). Only the program survives un-enrollment.
  for (int q = 0; q < platform_.size(); ++q) {
    if (config_.enrolled(q)) continue;
    auto& h = holdings_[static_cast<std::size_t>(q)];
    h.data_messages = 0;
    h.partial_slots = 0;
  }
  compute_total_ = config_.compute_slots(platform_.speeds());
  compute_done_ = 0;

  // Degenerate communication costs complete instantly.
  for (const auto& a : config_.assignments()) {
    auto& h = holdings_[static_cast<std::size_t>(a.proc)];
    if (app_.t_prog == 0) h.has_program = true;
    if (app_.t_data == 0) h.data_messages = std::max(h.data_messages, a.tasks);
  }
  reset_comm_remaining();
}

long Engine::comm_remaining(int q) const {
  const int x = config_.tasks_on(q);
  if (x == 0) return 0;
  const auto& h = holdings_[static_cast<std::size_t>(q)];
  long need = 0;
  if (!h.has_program && app_.t_prog > 0) need += app_.t_prog;
  need += static_cast<long>(std::max(0, x - h.data_messages)) * app_.t_data;
  return std::max(0L, need - h.partial_slots);
}

void Engine::reset_comm_remaining() {
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);
  for (const auto& a : config_.assignments()) {
    comm_remaining_buf_[static_cast<std::size_t>(a.proc)] = comm_remaining(a.proc);
  }
}

bool Engine::comm_phase_done() const {
  for (const auto& a : config_.assignments()) {
    if (comm_remaining_buf_[static_cast<std::size_t>(a.proc)] > 0) return false;
  }
  return true;
}

bool Engine::all_enrolled_up() const {
  for (const auto& a : config_.assignments()) {
    if (states_[static_cast<std::size_t>(a.proc)] != markov::State::Up) return false;
  }
  return true;
}

bool Engine::any_enrolled_down() const {
  for (const auto& a : config_.assignments()) {
    if (states_[static_cast<std::size_t>(a.proc)] == markov::State::Down) return true;
  }
  return false;
}

void Engine::clear_config() {
  for (const auto& a : config_.assignments()) {
    holdings_[static_cast<std::size_t>(a.proc)].unenroll();
  }
  config_ = model::Configuration{};
  compute_total_ = 0;
  compute_done_ = 0;
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);
}

void Engine::serve_communications() {
  // Candidates: enrolled UP workers with transfers pending, in enrollment
  // order; optionally re-ranked by remaining need (ablation policies).
  pending_.clear();
  for (const auto& a : config_.assignments()) {
    const auto q = static_cast<std::size_t>(a.proc);
    if (states_[q] != markov::State::Up) continue;  // RECLAIMED: transfer pauses
    if (comm_remaining_buf_[q] == 0) {
      if (options_.record_trace) {
        actions_[q] = Action::Idle;  // done, waiting for the phase barrier
      }
      continue;
    }
    pending_.push_back(a.proc);
  }
  if (options_.comm_order == CommOrder::FewestFirst) {
    std::stable_sort(pending_.begin(), pending_.end(), [this](int x, int y) {
      return comm_remaining_buf_[static_cast<std::size_t>(x)] <
             comm_remaining_buf_[static_cast<std::size_t>(y)];
    });
  } else if (options_.comm_order == CommOrder::MostFirst) {
    std::stable_sort(pending_.begin(), pending_.end(), [this](int x, int y) {
      return comm_remaining_buf_[static_cast<std::size_t>(x)] >
             comm_remaining_buf_[static_cast<std::size_t>(y)];
    });
  }

  int served = 0;
  for (int proc : pending_) {
    if (served >= platform_.ncom()) break;
    const auto q = static_cast<std::size_t>(proc);
    auto& h = holdings_[q];
    const bool program = !h.has_program && app_.t_prog > 0;
    if (options_.record_trace) actions_[q] = program ? Action::Program : Action::Data;
    ++h.partial_slots;
    const long len = program ? app_.t_prog : app_.t_data;
    if (h.partial_slots >= len) {
      h.partial_slots = 0;
      if (program) h.has_program = true;
      else ++h.data_messages;
      message_completed_ = true;
    }
    // One served slot always reduces the worker's remaining need by exactly
    // one, message completion included (the completed message leaves the
    // "needed" sum as its partial credit resets).
    --comm_remaining_buf_[q];
    ++served;
  }
  // Enrolled UP workers that were skipped for bandwidth are idle.
  if (options_.record_trace) {
    for (const auto& a : config_.assignments()) {
      const auto q = static_cast<std::size_t>(a.proc);
      if (states_[q] == markov::State::Up && actions_[q] == Action::None) {
        actions_[q] = Action::Idle;
      }
    }
  }
  if (served > 0) {
    ++current_iter_.comm_slots;
    last_phase_ = Phase::Comm;
  } else {
    // Every pending worker was RECLAIMED: the slot progressed nothing.
    ++current_iter_.stalled_slots;
    last_phase_ = Phase::Stalled;
  }
}

void Engine::advance_computation() {
  if (all_enrolled_up()) {
    if (options_.record_trace) {
      for (const auto& a : config_.assignments()) {
        actions_[static_cast<std::size_t>(a.proc)] = Action::Compute;
      }
    }
    ++compute_done_;
    ++current_iter_.compute_slots;
    last_phase_ = Phase::Compute;
    if (compute_done_ >= compute_total_) {
      complete_iteration();
      last_phase_ = Phase::Completed;
    }
  } else {
    // At least one enrolled worker is RECLAIMED: everyone suspends.
    ++current_iter_.suspended_slots;
    last_phase_ = Phase::Suspended;
    if (options_.record_trace) {
      for (const auto& a : config_.assignments()) {
        const auto q = static_cast<std::size_t>(a.proc);
        if (states_[q] == markov::State::Up) actions_[q] = Action::Idle;
      }
    }
  }
}

void Engine::complete_iteration() {
  current_iter_.start_slot = iteration_start_;
  current_iter_.end_slot = slot_;
  result_.iterations.push_back(current_iter_);
  current_iter_ = {};
  ++iterations_done_;

  // Global synchronization: task data is per-iteration, the program persists.
  for (auto& h : holdings_) h.next_iteration();
  config_ = model::Configuration{};
  compute_total_ = 0;
  compute_done_ = 0;
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);
  iteration_start_ = slot_ + 1;

  if (iterations_done_ >= app_.iterations) finished_ = true;
}

void Engine::build_view() {
#ifndef NDEBUG
  // comm_remaining_buf_ is maintained incrementally (install, serve,
  // unenroll, iteration boundary); cross-check it against the from-scratch
  // computation in debug builds.
  for (int q = 0; q < platform_.size(); ++q) {
    assert(comm_remaining_buf_[static_cast<std::size_t>(q)] == comm_remaining(q) &&
           "Engine: incremental comm_remaining out of sync");
  }
#endif
  view_.slot = slot_;
  view_.platform = &platform_;
  view_.app = &app_;
  view_.states = states_;
  view_.holdings = holdings_;
  view_.config = config_.empty() ? nullptr : &config_;
  view_.iteration_elapsed = slot_ - iteration_start_;
  view_.compute_total = compute_total_;
  view_.compute_done = compute_done_;
  view_.comm_remaining = comm_remaining_buf_;
}

void Engine::record_slot() {
  if (!options_.record_trace) return;
  // Build the row in place: no temporary vector per slot.
  auto& row = trace_.emplace_back(states_.size());
  for (std::size_t q = 0; q < states_.size(); ++q) {
    row[q] = Cell{states_[q], actions_[q]};
  }
}

// --------------------------------------------------------------------------
// Event-horizon fast path (DESIGN.md §8). After a normally processed slot,
// bulk-advance the run of upcoming slots whose outcome is already
// determined: the engine-side state machine is advanced arithmetically and
// the scheduler is not consulted, which is sound exactly when the latched
// Quiescence report covers every skipped slot. Event slots — where either
// the engine-side outcome (restart, iteration completion, communication
// progress) or the scheduler's answer (UP-gain, watched membership change,
// horizon expiry) can change — fall back to the per-slot path.
// --------------------------------------------------------------------------

const markov::State* Engine::prev_of_peeked() const {
  if (block_pos_ > 0) return peek_row() - states_.size();
  assert(prev_row_valid_);
  return prev_row_.data();
}

bool Engine::watched_membership_changed(const markov::State* prev,
                                        const markov::State* row) const {
  for (int q : quiesce_->watched) {
    const auto qi = static_cast<std::size_t>(q);
    if (is_up(prev[qi]) != is_up(row[qi])) return true;
  }
  return false;
}

void Engine::crash_down_in_row(const markov::State* row) {
  // Aggregate application of process_downs over a skipped slot: crash() is
  // idempotent, and no holdings of a DOWN worker can change between its
  // first DOWN slot and the next processed slot, so crashing on newly-DOWN
  // rows only is equivalent to crashing every slot.
  for (std::size_t q = 0; q < holdings_.size(); ++q) {
    if (row[q] == markov::State::Down) holdings_[q].crash();
  }
}

void Engine::record_bulk_row(const markov::State* row, bool compute) {
  if (!options_.record_trace) return;
  auto& tr = trace_.emplace_back(holdings_.size());
  for (std::size_t q = 0; q < holdings_.size(); ++q) {
    tr[q] = Cell{row[q], Action::None};
  }
  for (const auto& a : config_.assignments()) {
    const auto q = static_cast<std::size_t>(a.proc);
    if (compute) {
      tr[q].action = Action::Compute;
    } else if (is_up(row[q])) {
      tr[q].action = Action::Idle;  // suspended: UP workers wait
    }
  }
}

void Engine::fast_forward() {
  if (quiesce_ == nullptr) return;
  const Quiescence::Kind kind = quiesce_->kind;
  if (kind == Quiescence::Kind::EverySlot) return;
  // Replay mode without tracing jumps change-to-change over the
  // realization's digest bitsets instead of walking window rows; tracing
  // needs every row, so it stays on the (replay-fed) row-wise loops.
  const bool jump = realization_ != nullptr && !options_.record_trace;

  if (!config_.empty()) {
    if (last_phase_ == Phase::Comm || last_phase_ == Phase::Stalled) {
      // Comm-phase bulk advance: under enrollment order the served set is a
      // pure function of (enrolled states, which transfers are unfinished),
      // so a run of slots with the same enrolled states and no transfer
      // finishing can be applied arithmetically. WhileConfigured covers any
      // such run. An UntilEvent "no change" answer covers transfer progress
      // too, but not a message completion (holdings are decision inputs):
      // the run then also stops at the answer's events and right after the
      // next completion, and does not start at all when the slot just
      // processed completed one. Tracing needs per-slot action rows, and
      // the re-ranked comm orders re-sort by remaining need every slot: both
      // fall back to per-slot.
      if (options_.comm_order != CommOrder::Enrollment || options_.record_trace) return;
      const bool until_event = kind == Quiescence::Kind::UntilEvent &&
                               decision_no_change_ && !message_completed_;
      if (kind != Quiescence::Kind::WhileConfigured && !until_event) return;
      const long before = slot_;
      const bool jumped = jump && kind == Quiescence::Kind::WhileConfigured;
      if (jumped) advance_comm_jump();
      else advance_comm_run(kind);
      note_bulk_advance(telem_.bulk_runs_comm, telem_.bulk_slots_comm, before, jumped);
      return;
    }
    // Compute-phase bulk advance. Only valid when the just-processed slot
    // already was a compute/suspended slot: then the decision inputs
    // (holdings, comm progress) are unchanged since the consult. A comm
    // slot changes them, a completion slot cleared config_.
    if (last_phase_ != Phase::Compute && last_phase_ != Phase::Suspended) return;
    if (kind != Quiescence::Kind::WhileConfigured && !decision_no_change_) return;
    // Enrolled-RLE stretches only exist for WhileConfigured (other kinds
    // stop at global events, which the row-wise window walk handles best).
    const long before = slot_;
    const bool jumped = jump && kind == Quiescence::Kind::WhileConfigured;
    if (jumped) advance_configured_jump();
    else advance_configured_run(kind);
    note_bulk_advance(telem_.bulk_runs_configured, telem_.bulk_slots_configured,
                      before, jumped);
  } else {
    // Idle bulk advance: the scheduler just declined to build (no UP
    // capacity). WhileConfigured says nothing about the no-config case.
    if (last_phase_ != Phase::Idle || !decision_no_change_) return;
    if (kind == Quiescence::Kind::WhileConfigured) return;
    const long before = slot_;
    if (jump) advance_idle_jump(kind);
    else advance_idle_run(kind);
    note_bulk_advance(telem_.bulk_runs_idle, telem_.bulk_slots_idle, before, jump);
  }
}

void Engine::note_bulk_advance(long& runs, long& slots, long before, bool jumped) {
  const long advanced = slot_ - before;
  if (advanced <= 0) return;
  ++runs;
  slots += advanced;
  if (jumped) ++telem_.replay_jumps;
  telem_.bulk_advance_slots.observe(static_cast<std::uint64_t>(advanced));
}

void Engine::advance_configured_run(Quiescence::Kind kind) {
  const auto assigns = config_.assignments();
  while (slot_ < options_.slot_cap) {
    if (block_pos_ == block_filled_) refill_block();
    const auto pos = static_cast<std::size_t>(block_pos_);
    const markov::State* row = peek_row();

    // Scheduler events: the latched answer no longer covers the next slot.
    if (kind != Quiescence::Kind::WhileConfigured) {
      if (horizon_left_ <= 0) return;
      if (kind == Quiescence::Kind::UntilUpSetChanges) {
        if (digest_up_changed_[pos]) return;
      } else {  // UntilEvent
        if (digest_up_gain_[pos]) return;
        if (digest_up_changed_[pos] &&
            watched_membership_changed(prev_of_peeked(), row)) {
          return;
        }
      }
    }

    // Engine events: an enrolled worker going DOWN restarts the iteration
    // (and re-consults) — hand the row to the per-slot path untouched.
    bool any_down = false;
    bool all_up = true;
    for (const auto& a : assigns) {
      const markov::State s = row[static_cast<std::size_t>(a.proc)];
      if (s == markov::State::Down) {
        any_down = true;
        break;
      }
      if (s != markov::State::Up) all_up = false;
    }
    if (any_down) return;

    // Consume the row: one compute or suspended slot, bookkept exactly as
    // the per-slot path would.
    if (digest_new_down_[pos]) crash_down_in_row(row);  // un-enrolled DOWNs
    ++block_pos_;
    record_bulk_row(row, all_up);
    if (all_up) {
      ++compute_done_;
      ++current_iter_.compute_slots;
      if (compute_done_ >= compute_total_) {
        complete_iteration();  // uses slot_ as the iteration's end slot
        ++slot_;
        return;
      }
    } else {
      ++current_iter_.suspended_slots;
    }
    ++slot_;
    if (kind != Quiescence::Kind::WhileConfigured) --horizon_left_;
  }
}

void Engine::apply_comm_progress(std::size_t q, long slots) {
  // Replays `slots` consecutive served slots for one worker in O(messages
  // completed): the per-slot reference is ++partial_slots, complete the
  // message when partial_slots reaches its length, and one remaining slot
  // retired per served slot.
  auto& h = holdings_[q];
  comm_remaining_buf_[q] -= slots;
  while (slots > 0) {
    const bool program = !h.has_program && app_.t_prog > 0;
    const long len = program ? app_.t_prog : app_.t_data;
    const long need = len - h.partial_slots;
    if (slots >= need) {
      h.partial_slots = 0;
      if (program) h.has_program = true;
      else ++h.data_messages;
      slots -= need;
    } else {
      h.partial_slots += slots;
      slots = 0;
    }
  }
}

void Engine::advance_comm_run(Quiescence::Kind kind) {
  // The just-processed slot may have finished the last transfer; the next
  // slot then belongs to the compute phase, not to a comm run.
  if (comm_phase_done()) return;
  const bool until_event = kind == Quiescence::Kind::UntilEvent;
  const auto assigns = config_.assignments();
  // The reference pattern: the enrolled states of the just-processed slot.
  // Copied out of block_ because a refill during the run overwrites it.
  comm_ref_.assign(assigns.size(), markov::State::Up);
  for (std::size_t i = 0; i < assigns.size(); ++i) {
    comm_ref_[i] = states_[static_cast<std::size_t>(assigns[i].proc)];
  }

  // Who gets served while the pattern holds (first ncom pending workers in
  // enrollment order), and for how many slots the pattern can hold: until
  // some served transfer finishes (the served set then changes) — under
  // UntilEvent until some served message completes, the slot of the
  // completion included — an enrolled state changes, or the cap.
  pending_.clear();
  long serveable = 0;
  long finish_horizon = std::numeric_limits<long>::max();
  for (std::size_t i = 0; i < assigns.size(); ++i) {
    if (comm_ref_[i] != markov::State::Up) continue;
    const auto q = static_cast<std::size_t>(assigns[i].proc);
    if (comm_remaining_buf_[q] == 0) continue;
    if (serveable < platform_.ncom()) {
      pending_.push_back(assigns[i].proc);
      long horizon = comm_remaining_buf_[q];
      if (until_event) {
        const model::Holdings& h = holdings_[q];
        const bool program = !h.has_program && app_.t_prog > 0;
        horizon = (program ? app_.t_prog : app_.t_data) - h.partial_slots;
      }
      finish_horizon = std::min(finish_horizon, horizon);
      ++serveable;
    }
  }

  long run = 0;
  while (slot_ < options_.slot_cap && run < finish_horizon) {
    if (block_pos_ == block_filled_) refill_block();
    const auto pos = static_cast<std::size_t>(block_pos_);
    const markov::State* row = peek_row();
    if (until_event) {
      // The latched answer's own events: horizon expiry, a worker joining
      // the UP set, a watched worker's membership change.
      if (horizon_left_ <= 0) break;
      if (digest_up_gain_[pos]) break;
      if (digest_up_changed_[pos] && watched_membership_changed(prev_of_peeked(), row)) {
        break;
      }
    }
    bool pattern_holds = true;
    for (std::size_t i = 0; i < assigns.size(); ++i) {
      if (row[static_cast<std::size_t>(assigns[i].proc)] != comm_ref_[i]) {
        pattern_holds = false;
        break;
      }
    }
    if (!pattern_holds) break;
    if (digest_new_down_[pos]) {
      crash_down_in_row(row);  // un-enrolled only: enrolled states match the
                               // reference, which had no DOWN worker
    }
    ++block_pos_;
    ++slot_;
    ++run;
    if (until_event) --horizon_left_;
  }
  if (run == 0) return;
  if (pending_.empty()) {
    // Every unfinished transfer is paused on a RECLAIMED worker.
    current_iter_.stalled_slots += run;
  } else {
    current_iter_.comm_slots += run;
    for (int proc : pending_) {
      apply_comm_progress(static_cast<std::size_t>(proc), run);
    }
  }
}

// --------------------------------------------------------------------------
// Realization replay jumps (DESIGN.md §9), mirrors of the advance_*_run
// loops above with the per-row work replaced by realization queries:
//
//   * WhileConfigured compute/suspend and comm runs advance by ENROLLED-SET
//     homogeneous stretches read straight off the per-worker RLE intervals
//     (Realization::stable_until). While every enrolled worker holds its
//     state, the row-wise loop's per-slot outcome is frozen (all_up /
//     any_down / the served comm set depend only on enrolled states), so a
//     whole stretch is applied arithmetically; crashes of un-enrolled
//     workers inside the stretch are applied in aggregate (down_overlaps —
//     sound because crash() is idempotent and a DOWN worker's holdings
//     cannot change until processed again).
//   * Idle runs (and any horizon-latched kind) stop at GLOBAL events, so
//     they jump over the digest bitsets (next_change) instead.
//   * Configured runs on any other kind (UntilEvent compute/suspend and
//     comm runs) stay on the row-wise loops above.
//
// Every slot examined individually reads the identical states and digest
// values the row-wise loop would read from its window, so both paths take
// the same decisions at the same slots: results are bit-identical.
// --------------------------------------------------------------------------

void Engine::resync_window() {
  // Jumps advance slot_ without consuming window rows. If the new position
  // is still inside the (immutable, absolute-indexed) window, just re-point;
  // otherwise force the next refill to rebuild at slot_.
  if (block_filled_ > 0 && slot_ >= block_base_ && slot_ < block_base_ + block_filled_) {
    block_pos_ = slot_ - block_base_;
  } else {
    block_pos_ = 0;
    block_filled_ = 0;
  }
}

const markov::State* Engine::jump_row(long slot) {
  realization_->ensure(slot + 1);
  realization_->expand_rows(slot, slot + 1, row_scratch_.data());
  return row_scratch_.data();
}

void Engine::switch_to_live() {
  // The frozen realization's embedded source stands exactly at the
  // frontier (materialization consumes it through fill_block and nothing
  // else touches it), and slot_ has reached that frontier: from here the
  // run IS the ordinary live engine on a continued stream — same rows,
  // same digests, same loops — so recording the remaining slots (which no
  // other run will ever replay) is skipped entirely.
  assert(realization_->frontier() == slot_);
  assert(realization_->source().position() == slot_);
  if (options_.fast_forward) {
    if (slot_ > 0) {
      realization_->expand_rows(slot_ - 1, slot_, prev_row_.data());
      prev_row_valid_ = true;
    } else {
      prev_row_valid_ = false;
    }
  }
  availability_ = &realization_->source();
  realization_ = nullptr;
  // Back to the live prefetch sizing: generation is expensive again, so the
  // wide replay window would only grow the overshoot past the makespan.
  block_slots_ = std::min(options_.avail_block, options_.slot_cap);
  block_pos_ = 0;
  block_filled_ = 0;
}

void Engine::crash_down_in_range(long begin, long end) {
  // Aggregate process_downs over the skipped slots [begin, end]: any worker
  // DOWN somewhere in the range is crashed once (idempotent; see above). No
  // enrolled worker is ever DOWN inside a stretch, so this only sweeps
  // up-for-grabs holdings of un-enrolled workers.
  if (begin > end) return;
  if (!realization_->any_new_down(begin, end)) return;  // nothing fresh to crash
  for (std::size_t q = 0; q < holdings_.size(); ++q) {
    // Empty holdings make crash() a no-op: skip the interval walk entirely.
    // This prunes the sweep to the few workers actually holding program or
    // data (the enrolled ones are holders but are never DOWN in a stretch —
    // their walk just comes back false).
    const model::Holdings& h = holdings_[q];
    if (!h.has_program && h.data_messages == 0 && h.partial_slots == 0) continue;
    if (realization_->down_overlaps(static_cast<int>(q), begin, end)) {
      holdings_[q].crash();
    }
  }
}

void Engine::advance_configured_jump() {
  // WhileConfigured only: the scheduler stays silent for the lifetime of
  // the configuration, so the only stretch bounds are enrolled-state
  // changes, iteration completion and the slot cap.
  const auto assigns = config_.assignments();
  enrolled_buf_.clear();
  for (const auto& a : assigns) enrolled_buf_.push_back(a.proc);
  // Frozen realizations end at their frontier: cap stretches there and hand
  // the rest to the per-slot path, whose refill switches to live mode.
  const long replay_end =
      realization_->frozen() ? realization_->frontier() : options_.slot_cap;
  bool all_up = last_phase_ == Phase::Compute;
  while (slot_ < options_.slot_cap) {
    if (slot_ >= replay_end) break;
    long limit = std::min(options_.slot_cap, replay_end);
    const long need = compute_total_ - compute_done_;
    if (all_up && slot_ + need < limit) limit = slot_ + need;
    const long e = realization_->stable_until(enrolled_buf_, slot_ - 1, limit);
    const long run = e - slot_;
    if (run > 0) {
      if (all_up) {
        if (run >= need) {
          // The iteration completes inside the stretch.
          crash_down_in_range(slot_, slot_ + need - 1);
          compute_done_ = compute_total_;
          current_iter_.compute_slots += need;
          slot_ += need - 1;
          complete_iteration();
          ++slot_;
          resync_window();
          return;
        }
        compute_done_ += run;
        current_iter_.compute_slots += run;
      } else {
        current_iter_.suspended_slots += run;
      }
      crash_down_in_range(slot_, e - 1);
      slot_ = e;
      if (slot_ >= options_.slot_cap) break;
    }
    if (slot_ >= replay_end) break;  // frozen boundary, not a change slot
    // slot_ == e < cap: some enrolled worker changed state here. Reclassify
    // from the RLE point lookups, exactly as the row-wise loop reads its row.
    bool any_down = false;
    bool row_all_up = true;
    for (int proc : enrolled_buf_) {
      const markov::State s = realization_->state_at(proc, slot_);
      if (s == markov::State::Down) {
        any_down = true;
        break;
      }
      if (s != markov::State::Up) row_all_up = false;
    }
    if (any_down) break;  // restart: hand the slot to the per-slot path
    crash_down_in_range(slot_, slot_);
    if (row_all_up) {
      ++compute_done_;
      ++current_iter_.compute_slots;
      if (compute_done_ >= compute_total_) {
        complete_iteration();
        ++slot_;
        resync_window();
        return;
      }
    } else {
      ++current_iter_.suspended_slots;
    }
    ++slot_;
    all_up = row_all_up;
  }
  resync_window();
}

void Engine::advance_comm_jump() {
  // The just-processed slot may have finished the last transfer; the next
  // slot then belongs to the compute phase, not to a comm run.
  if (comm_phase_done()) return;
  const auto assigns = config_.assignments();
  // Who gets served while the enrolled states hold (first ncom pending
  // workers in enrollment order), and for how long: until a served transfer
  // finishes, an enrolled state changes, or the cap.
  pending_.clear();
  long serveable = 0;
  long finish_horizon = std::numeric_limits<long>::max();
  enrolled_buf_.clear();
  for (const auto& a : assigns) {
    enrolled_buf_.push_back(a.proc);
    const auto q = static_cast<std::size_t>(a.proc);
    if (states_[q] != markov::State::Up) continue;
    if (comm_remaining_buf_[q] == 0) continue;
    if (serveable < platform_.ncom()) {
      pending_.push_back(a.proc);
      finish_horizon = std::min(finish_horizon, comm_remaining_buf_[q]);
      ++serveable;
    }
  }
  long limit = options_.slot_cap;
  if (realization_->frozen()) limit = std::min(limit, realization_->frontier());
  if (limit <= slot_) return;  // at the frozen boundary: per-slot path switches
  if (finish_horizon < limit - slot_) limit = slot_ + finish_horizon;  // no overflow
  // One stretch is the whole run: the row-wise loop ends for good at the
  // first enrolled-state deviation (or the horizon/cap), never resuming.
  const long e = realization_->stable_until(enrolled_buf_, slot_ - 1, limit);
  const long run = e - slot_;
  if (run <= 0) return;
  crash_down_in_range(slot_, e - 1);
  if (pending_.empty()) {
    // Every unfinished transfer is paused on a RECLAIMED worker.
    current_iter_.stalled_slots += run;
  } else {
    current_iter_.comm_slots += run;
    for (int proc : pending_) {
      apply_comm_progress(static_cast<std::size_t>(proc), run);
    }
  }
  slot_ = e;
  resync_window();
}

void Engine::advance_idle_jump(Quiescence::Kind kind) {
  // Idle stops are GLOBAL (a worker joining UP anywhere can end them), so
  // the stretch oracle is the digest bitset scan, not the enrolled RLE.
  const long replay_end =
      realization_->frozen() ? realization_->frontier() : options_.slot_cap;
  while (slot_ < options_.slot_cap) {
    if (slot_ >= replay_end) break;  // frozen boundary: per-slot path switches
    if (horizon_left_ <= 0) break;
    long lim = std::min(options_.slot_cap, replay_end);
    if (horizon_left_ < lim - slot_) lim = slot_ + horizon_left_;  // no overflow
    const long event = realization_->next_change(slot_, lim);
    const long run = event - slot_;
    result_.idle_slots += run;
    slot_ = event;
    horizon_left_ -= run;
    if (slot_ >= options_.slot_cap) break;
    if (event == lim) continue;  // horizon boundary, not a change slot
    const bool chg = realization_->up_changed_at(slot_);
    if (kind == Quiescence::Kind::UntilUpSetChanges) {
      if (chg) break;
    } else {  // UntilEvent
      if (realization_->up_gain_at(slot_)) break;
      if (chg) {
        const markov::State* row = jump_row(slot_);
        realization_->expand_rows(slot_ - 1, slot_, prev_scratch_.data());
        if (watched_membership_changed(prev_scratch_.data(), row)) break;
      }
    }
    if (realization_->new_down_at(slot_)) crash_down_in_row(jump_row(slot_));
    ++result_.idle_slots;
    ++slot_;
    --horizon_left_;
  }
  resync_window();
}

void Engine::advance_idle_run(Quiescence::Kind kind) {
  while (slot_ < options_.slot_cap) {
    if (block_pos_ == block_filled_) refill_block();
    const auto pos = static_cast<std::size_t>(block_pos_);

    if (horizon_left_ <= 0) return;
    const markov::State* row = peek_row();
    if (kind == Quiescence::Kind::UntilUpSetChanges) {
      if (digest_up_changed_[pos]) return;
    } else {  // UntilEvent: a worker joining, or a watched worker changing
      if (digest_up_gain_[pos]) return;
      if (digest_up_changed_[pos] &&
          watched_membership_changed(prev_of_peeked(), row)) {
        return;
      }
    }
    if (digest_new_down_[pos]) crash_down_in_row(row);
    ++block_pos_;
    ++result_.idle_slots;
    if (options_.record_trace) {
      auto& tr = trace_.emplace_back(holdings_.size());
      for (std::size_t q = 0; q < holdings_.size(); ++q) {
        tr[q] = Cell{row[q], Action::None};
      }
    }
    ++slot_;
    --horizon_left_;
  }
}

}  // namespace tcgrid::sim
