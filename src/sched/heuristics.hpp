// The paper's 17 on-line heuristics (§VI):
//   * RANDOM            — uniform placement on UP workers (baseline);
//   * IP, IE, IY, IAY   — passive incremental heuristics;
//   * C-H for C in {P, E, Y}, H in {IP, IE, IY, IAY} — proactive heuristics
//     that rebuild a candidate configuration every slot and switch when the
//     criterion strictly improves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/incremental.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace tcgrid::sched {

/// Passive heuristic: keeps the current configuration as long as possible;
/// builds a new one only when none is in place (run start, iteration start,
/// or after an enrolled worker went DOWN).
///
/// Quiescence: WhileConfigured — decide() unconditionally keeps an installed
/// configuration, reading nothing. With no configuration and no feasible
/// placement, the answer is stable until a worker joins the UP set
/// (infeasibility depends only on the UP set's total capacity, so it is
/// elapsed-independent even for the IY rule).
class PassiveScheduler final : public sim::Scheduler {
 public:
  PassiveScheduler(Rule rule, const Estimator& estimator)
      : builder_(rule, estimator), name_(to_string(rule)) {}

  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override;
  [[nodiscard]] const sim::Quiescence& quiescence() const override { return q_; }
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// How the configuration builds were answered (reuse / memo hit / fresh).
  [[nodiscard]] const BuildCounts& build_counts() const noexcept {
    return builder_.counts();
  }

 private:
  IncrementalBuilder builder_;
  std::string name_;
  sim::Quiescence q_;
};

/// Baseline: allocates each task to a uniformly random UP worker with spare
/// capacity; passive otherwise.
///
/// Quiescence: WhileConfigured with a configuration in place (no RNG is
/// touched), EverySlot otherwise — idle consults draw from the RNG, so
/// skipping any would shift the random stream.
class RandomScheduler final : public sim::Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}

  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override;
  [[nodiscard]] const sim::Quiescence& quiescence() const override { return q_; }
  [[nodiscard]] std::string_view name() const override { return "RANDOM"; }

 private:
  util::Rng rng_;
  sim::Quiescence q_;
  // reusable per-decide buffers (hoisted allocations)
  std::vector<int> loads_;
  std::vector<int> order_;
  std::vector<int> eligible_;
};

/// Proactive heuristic C-H (criterion `crit`, builder rule `rule`).
///
/// Every slot, the current configuration's criterion value is refreshed with
/// its actual progress (remaining communications and remaining workload) and
/// compared against a candidate built by the rule as if from scratch; the
/// switch happens only on strict improvement, which — because a
/// configuration's refreshed value can only improve as it progresses —
/// guarantees the no-divergence property required by §VI-B.
///
/// The candidate depends only on (UP set, holdings of UP workers) — and
/// additionally on elapsed time for the IY rule. The builder therefore
/// returns its previous candidate when no worker that joined UP or changed
/// holdings can win a placement round (O(m) per changed worker), and
/// otherwise consults the estimator's shared build memo, keyed on a
/// signature of those inputs, before building afresh (a build costs m*p
/// estimator evaluations). IY rebuilds every slot.
///
/// Quiescence (see DESIGN.md §8): after a "no switch" answer under a
/// non-IY rule without compute crediting, the decision is stable until a
/// worker joins the UP set, a candidate worker's UP-membership changes, a
/// message completes or an enrolled worker changes state (UntilEvent,
/// watching the candidate's workers). Transfer progress short of a message
/// completion leaves the candidate unchanged and can only raise the current
/// configuration's score — provided its tables are monotone: each enrolled
/// q's proc_stats(q).expected_time is non-decreasing on [0, n_q] and its
/// p_no_down(q, .) is non-increasing on [0, ceil(E_comm)]. The estimator
/// checks both on the actual tables; if either fails, a comm-phase answer
/// reports EverySlot instead. The Y criterion additionally reports a slot
/// horizon: its scores decay with elapsed time, so the no-switch comparison
/// can flip with no state change at all; the horizon is found by replaying
/// decide()'s exact floating-point comparison at future elapsed values,
/// which keeps fast-forwarded runs bit-identical.
class ProactiveScheduler final : public sim::Scheduler {
 public:
  ProactiveScheduler(Criterion crit, Rule rule, const Estimator& estimator);

  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override;
  [[nodiscard]] const sim::Quiescence& quiescence() const override { return q_; }
  [[nodiscard]] std::string_view name() const override { return name_; }

  /// Disable candidate reuse and memoization together (ablation benches and
  /// tests only; results must be identical with or without them, except for
  /// the IY rule where both are always off).
  void set_caching(bool on) noexcept { builder_.set_memo(on); }

  /// How the candidate builds were answered (reuse / memo hit / fresh).
  [[nodiscard]] const BuildCounts& build_counts() const noexcept {
    return builder_.counts();
  }

  /// Whether the current configuration's refreshed criterion credits the
  /// compute slots already banked (W_remaining instead of the full W).
  ///
  /// Default OFF: only communication progress is credited, so the current
  /// configuration is re-scored against the full W for as long as it
  /// computes, and a candidate needs a strictly better score to replace it.
  /// ON is the literal reading of §VI-B ("computations may have started ...
  /// the measure should be updated"); the ablation bench contrasts the two.
  /// Neither setting reproduces the paper's Table I ranking at paper scale
  /// (all twelve proactive variants beat IE here; in the paper eight of
  /// them lose to it); closing that gap is an open item.
  void set_credit_compute(bool on) noexcept { credit_compute_ = on; }

 private:
  [[nodiscard]] IterationEstimate current_estimate(const sim::SchedulerView& view) const;
  [[nodiscard]] long stable_horizon(const IterationEstimate& cur,
                                    const IterationEstimate& cand,
                                    long elapsed) const;
  void report_no_switch(const BuiltConfiguration& cand, const IterationEstimate& cur,
                        long elapsed);
  [[nodiscard]] bool comm_progress_cannot_lower_score() const;

  Criterion crit_;
  IncrementalBuilder builder_;
  std::string name_;
  bool credit_compute_ = false;

  // Scratch for current_estimate (hoisted allocations).
  mutable std::vector<int> cur_set_;
  mutable std::vector<Estimator::CommNeed> cur_needs_;

  sim::Quiescence q_;
};

}  // namespace tcgrid::sched
