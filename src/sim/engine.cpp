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
    : platform_(platform),
      app_(app),
      availability_(&availability),
      scheduler_(scheduler),
      options_(options) {
  app_.validate();
  if (availability_->size() != platform_.size()) {
    throw std::invalid_argument("Engine: availability/platform size mismatch");
  }
  if (options_.slot_cap < 1) throw std::invalid_argument("Engine: slot_cap < 1");
  if (options_.avail_block < 1) throw std::invalid_argument("Engine: avail_block < 1");
  // A block never needs to exceed the run length: clamping bounds the buffer
  // (and the prefetch overshoot) by slot_cap however large the option is.
  block_slots_ = std::min(options_.avail_block, options_.slot_cap);
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
}

Engine::Engine(const platform::Platform& platform, const model::Application& app,
               platform::Realization& realization, Scheduler& scheduler,
               EngineOptions options)
    : Engine(platform, app, std::make_unique<platform::RealizationView>(realization),
             scheduler, options) {}

Engine::Engine(const platform::Platform& platform, const model::Application& app,
               std::unique_ptr<platform::AvailabilitySource> owned, Scheduler& scheduler,
               EngineOptions options)
    : Engine(platform, app, *owned, scheduler, options) {
  owned_source_ = std::move(owned);
}

SimulationResult Engine::run() {
  result_ = {};
  current_iter_ = {};
  telem_ = {};
  trace_.clear();
  iteration_start_ = 0;
  consults_ = 0;
  // Full re-run reset: a second run() continues the source's stream with
  // clean application state.
  finished_ = false;
  iterations_done_ = 0;
  config_ = model::Configuration{};
  compute_total_ = 0;
  compute_done_ = 0;
  std::fill(holdings_.begin(), holdings_.end(), model::Holdings{});
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);

  block_pos_ = block_filled_ = 0;  // (re-)pull from the source's current slot
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
  // Availability is consumed through the block-stepping contract: one
  // fill_block call (which also advances the source) per avail_block slots,
  // then row-wise consumption, no per-processor virtual dispatch.
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
      advance_comm_run(kind);
      note_bulk_advance(telem_.bulk_runs_comm, telem_.bulk_slots_comm, before);
      return;
    }
    // Compute-phase bulk advance. Only valid when the just-processed slot
    // already was a compute/suspended slot: then the decision inputs
    // (holdings, comm progress) are unchanged since the consult. A comm
    // slot changes them, a completion slot cleared config_.
    if (last_phase_ != Phase::Compute && last_phase_ != Phase::Suspended) return;
    if (kind != Quiescence::Kind::WhileConfigured && !decision_no_change_) return;
    const long before = slot_;
    advance_configured_run(kind);
    note_bulk_advance(telem_.bulk_runs_configured, telem_.bulk_slots_configured, before);
  } else {
    // Idle bulk advance: the scheduler just declined to build (no UP
    // capacity). WhileConfigured says nothing about the no-config case.
    if (last_phase_ != Phase::Idle || !decision_no_change_) return;
    if (kind == Quiescence::Kind::WhileConfigured) return;
    const long before = slot_;
    advance_idle_run(kind);
    note_bulk_advance(telem_.bulk_runs_idle, telem_.bulk_slots_idle, before);
  }
}

void Engine::note_bulk_advance(long& runs, long& slots, long before) {
  const long advanced = slot_ - before;
  if (advanced <= 0) return;
  ++runs;
  slots += advanced;
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
