#include "sched/heuristics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace tcgrid::sched {

namespace {

using Kind = sim::Quiescence::Kind;

void report(sim::Quiescence& q, Kind kind,
            long horizon = sim::Quiescence::kUnbounded) {
  q.kind = kind;
  q.horizon = horizon;
  q.watched.clear();
}

/// "No feasible placement" depends only on the UP set's total capacity
/// (IncrementalBuilder::build fails exactly when fewer than m task slots
/// are UP), so the answer holds — for every rule, elapsed time included —
/// until some worker joins the UP set. UP-set shrinks keep it infeasible.
void report_infeasible(sim::Quiescence& q) { report(q, Kind::UntilEvent); }

}  // namespace

std::optional<model::Configuration> PassiveScheduler::decide(
    const sim::SchedulerView& view) {
  if (view.has_config()) {
    report(q_, Kind::WhileConfigured);
    return std::nullopt;
  }
  auto built = builder_.build(view);
  if (built.config.empty()) {
    report_infeasible(q_);
    return std::nullopt;
  }
  // The answer installs a configuration the policy will then never preempt.
  report(q_, Kind::WhileConfigured);
  return std::move(built.config);
}

std::optional<model::Configuration> RandomScheduler::decide(
    const sim::SchedulerView& view) {
  if (view.has_config()) {
    report(q_, Kind::WhileConfigured);  // passive while enrolled: no RNG use
    return std::nullopt;
  }
  report(q_, Kind::EverySlot);  // every idle consult may draw from the RNG
  const auto& plat = *view.platform;
  const int p = plat.size();
  const int m = view.app->num_tasks;

  // Hoisted buffers: RANDOM is consulted at every un-configured slot of its
  // (frequently cap-length) runs, and three allocations per consult were
  // measurable in sweeps.
  auto& loads = loads_;
  loads.assign(static_cast<std::size_t>(p), 0);
  auto& order = order_;
  order.clear();
  for (int task = 0; task < m; ++task) {
    // Workers eligible for one more task.
    auto& eligible = eligible_;
    eligible.clear();
    for (int q = 0; q < p; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (view.states[qi] != markov::State::Up) continue;
      if (loads[qi] >= plat.proc(q).max_tasks) continue;
      eligible.push_back(q);
    }
    if (eligible.empty()) return std::nullopt;
    const int q = eligible[rng_.index(eligible.size())];
    if (loads[static_cast<std::size_t>(q)] == 0) order.push_back(q);
    ++loads[static_cast<std::size_t>(q)];
  }

  std::vector<model::Assignment> assignments;
  assignments.reserve(order.size());
  for (int q : order) assignments.push_back({q, loads[static_cast<std::size_t>(q)]});
  return model::Configuration(std::move(assignments));
}

ProactiveScheduler::ProactiveScheduler(Criterion crit, Rule rule,
                                       const Estimator& estimator)
    : crit_(crit), builder_(rule, estimator) {
  name_ = std::string(to_string(crit)) + "-" + std::string(to_string(rule));
}

IterationEstimate ProactiveScheduler::current_estimate(
    const sim::SchedulerView& view) const {
  auto& set = cur_set_;
  auto& needs = cur_needs_;
  set.clear();
  needs.clear();
  const auto& cfg = *view.config;
  for (const auto& a : cfg.assignments()) {
    set.push_back(a.proc);
    needs.push_back({a.proc, view.comm_remaining[static_cast<std::size_t>(a.proc)]});
  }
  const long w = credit_compute_ ? view.compute_total - view.compute_done
                                 : view.compute_total;
  return builder_.estimator().evaluate(needs, set, w);
}

long ProactiveScheduler::stable_horizon(const IterationEstimate& cur,
                                        const IterationEstimate& cand,
                                        long elapsed) const {
  // The Y criterion's scores decay with elapsed time at different rates, so
  // a "no switch" verdict can flip with no state change. Replay decide()'s
  // EXACT comparison at the elapsed values of upcoming slots: the count of
  // future slots still deciding "no switch" is a horizon the engine can
  // skip through bit-identically. The cap bounds the (cheap) scan; real
  // runs hit a membership event long before 64 quiet slots pass.
  constexpr long kCap = 64;
  for (long h = 1; h <= kCap; ++h) {
    if (criterion_score(crit_, cand, elapsed + h) >
        criterion_score(crit_, cur, elapsed + h)) {
      return h - 1;
    }
  }
  return kCap;
}

void ProactiveScheduler::report_no_switch(const BuiltConfiguration& cand,
                                          const IterationEstimate& cur,
                                          long elapsed) {
  // IY candidates depend on elapsed time and compute crediting makes the
  // current estimate change every compute slot: both make the answer
  // time-varying in ways no event predicts.
  if (builder_.rule() == Rule::IY || credit_compute_) {
    report(q_, Kind::EverySlot);
    return;
  }
  // In the comm phase the promise also covers transfer progress (the engine
  // bulk-advances up to the next message completion): sound only if that
  // progress cannot lower the current configuration's score.
  if (!comm_progress_cannot_lower_score()) {
    report(q_, Kind::EverySlot);
    return;
  }
  q_.kind = Kind::UntilEvent;
  q_.horizon = crit_ == Criterion::Y ? stable_horizon(cur, cand.estimate, elapsed)
                                     : sim::Quiescence::kUnbounded;
  // Watch the candidate's workers: a membership change of any of them can
  // change the candidate. UP-set shrinks outside this set cannot (the
  // incremental argmax never changes when a non-chosen option disappears),
  // and joins are engine-side events already.
  q_.watched.clear();
  for (const auto& a : cand.config.assignments()) q_.watched.push_back(a.proc);
}

bool ProactiveScheduler::comm_progress_cannot_lower_score() const {
  // As transfers progress, each n_q in cur_needs_ (the installed
  // configuration's remaining needs, filled by current_estimate) only
  // falls. If E^{(q)} is non-decreasing below n_q, E_comm can only fall;
  // if every P_ND^{(q)} is non-increasing below ceil(E_comm), P_comm can
  // only rise. W is fixed (no compute crediting here), and every criterion
  // score is monotone in (P up, E down) under IEEE rounding, so the
  // refreshed score can only rise while the candidate stays put.
  const Estimator& est = builder_.estimator();
  bool pending = false;
  for (const auto& n : cur_needs_) {
    if (n.slots <= 0) continue;
    pending = true;
    if (!est.comm_time_nondecreasing(n.proc, n.slots)) return false;
  }
  if (!pending) return true;  // compute phase: no transfer left to progress
  const double e_comm = est.expected_comm_time(cur_needs_);
  if (!(e_comm < 1e12)) return false;  // no table reaches that far
  const auto t = static_cast<long>(std::ceil(e_comm));
  for (const auto& n : cur_needs_) {
    if (!est.survival_nonincreasing(n.proc, t)) return false;
  }
  return true;
}

std::optional<model::Configuration> ProactiveScheduler::decide(
    const sim::SchedulerView& view) {
  if (!view.has_config()) {
    auto built = builder_.build(view);
    if (built.config.empty()) {
      report_infeasible(q_);
      return std::nullopt;
    }
    report(q_, Kind::EverySlot);  // fresh epoch: transfers start next slot
    return std::move(built.config);
  }

  const IterationEstimate cur = current_estimate(view);
  const double c = criterion_score(crit_, cur, view.iteration_elapsed);

  const BuiltConfiguration& cand = builder_.build_memoized(view);
  if (cand.config.empty()) {
    // No feasible alternative: "keep" holds until a worker joins the UP set,
    // whatever the criterion values do.
    report_infeasible(q_);
    return std::nullopt;
  }
  const double c2 = criterion_score(crit_, cand.estimate, view.iteration_elapsed);

  if (c2 > c) {
    model::Configuration chosen = cand.config;
    report(q_, Kind::EverySlot);
    return chosen;
  }
  report_no_switch(cand, cur, view.iteration_elapsed);
  return std::nullopt;
}

}  // namespace tcgrid::sched
