// Incremental configuration construction (paper §VI-A).
//
// Tasks are placed one at a time: each of the m tasks goes to the UP worker
// (with spare capacity) that optimizes the rule's score for the whole
// partial configuration, accounting for program/data the workers already
// hold. Ties break toward the lower processor index, which makes every
// heuristic fully deterministic given the same view.
#pragma once

#include <vector>

#include "model/configuration.hpp"
#include "sched/criteria.hpp"
#include "sched/estimator.hpp"
#include "sim/scheduler.hpp"

namespace tcgrid::sched {

/// Result of building a candidate configuration: the configuration (empty if
/// no feasible placement exists), the estimate of the *full* iteration on
/// it, and each placement round's winner. Aliases the estimator's memo entry
/// type — build results are memoized at the estimator level (shared across
/// the schedulers and trials of a scenario).
using BuiltConfiguration = MemoizedBuild;

/// FNV-1a signature of everything a (non-IY) incremental build reads from a
/// view: per-processor UP bit and, for UP workers only, the has_program bit
/// and completed data-message count (non-UP workers are never candidates,
/// so their holdings are not read). Two views with equal signatures and the
/// same platform/application (the estimator's) produce identical builds.
[[nodiscard]] std::uint64_t view_signature(const sim::SchedulerView& view);

/// How a builder answered its build_memoized() calls (plain per-builder
/// tallies; observability only).
struct BuildCounts {
  long reuses = 0;        ///< previous build returned: no changed worker wins
  long memo_hits = 0;     ///< answered from the estimator's build memo
  long fresh_builds = 0;  ///< full m*p build
};

/// Like the Estimator it drives, a builder is NOT thread-safe: build()
/// reuses internal scratch buffers (a build runs m*p candidate evaluations;
/// allocating per call would dominate it). Use one per run/thread.
class IncrementalBuilder {
 public:
  IncrementalBuilder(Rule rule, const Estimator& estimator)
      : rule_(rule), estimator_(&estimator) {}

  [[nodiscard]] Rule rule() const noexcept { return rule_; }
  [[nodiscard]] const Estimator& estimator() const noexcept { return *estimator_; }

  /// Build a configuration for the current view (assumes any existing
  /// configuration would be abandoned: partial transfers are not credited;
  /// completed program/data are, per the model). Non-IY builds answer, in
  /// order of cost:
  ///   1. the builder's previous build, when no worker whose inputs changed
  ///      since then can win any placement round (see reuse_holds);
  ///   2. the estimator's build memo, keyed by view_signature — a build is a
  ///      pure function of the signed inputs plus the estimator's fixed
  ///      platform/application, so hits return exactly what a rebuild would;
  ///   3. a fresh build (memoized for the next caller).
  /// The reference is valid until the next build through this builder.
  [[nodiscard]] const BuiltConfiguration& build_memoized(
      const sim::SchedulerView& view) const;

  /// build_memoized, returning a copy (convenience for install paths).
  [[nodiscard]] BuiltConfiguration build(const sim::SchedulerView& view) const {
    return build_memoized(view);
  }

  /// Disable the previous-build reuse and the memo together (ablation:
  /// results must be identical either way; the IY rule always bypasses both
  /// — its score depends on elapsed time, which neither can cover).
  void set_memo(bool on) noexcept {
    memo_ = on;
    last_valid_ = false;
  }

  /// Tallies of how build_memoized() calls were answered.
  [[nodiscard]] const BuildCounts& counts() const noexcept { return counts_; }

  /// Estimate an arbitrary configuration from scratch under the same
  /// accounting as build() (used to score proactive candidates and, with
  /// explicit remaining quantities, the current configuration).
  [[nodiscard]] IterationEstimate estimate_fresh(const sim::SchedulerView& view,
                                                 const model::Configuration& cfg) const;

 private:
  void build_fresh(const sim::SchedulerView& view, BuiltConfiguration& out) const;

  // One placement round over the partial configuration in order_/loads_.
  // build_fresh and reuse_holds share these, so the two cannot disagree on
  // a candidate's score.
  void begin_rounds(int p) const;
  void begin_round(const sim::SchedulerView& view) const;
  [[nodiscard]] double candidate_score(const sim::SchedulerView& view, int q,
                                       IterationEstimate& est) const;
  void enroll(const sim::SchedulerView& view, int q) const;

  /// True when the previous build is exactly what a fresh build of `view`
  /// would return: no candidate worker left UP or changed holdings, and no
  /// worker that joined UP or changed holdings beats any round's winner.
  [[nodiscard]] bool reuse_holds(const sim::SchedulerView& view) const;
  /// Record `view` as the inputs of the build now held in last_.
  void remember(const sim::SchedulerView& view) const;

  /// Structural identity of an un-enrolled candidate: two UP workers with
  /// equal chain, speed and holdings produce bitwise-identical estimates and
  /// scores, so only the first of each class can win the argmax (ties lose
  /// to the strictly-greater test). Clustered/homogeneous platforms collapse
  /// whole candidate loops onto a handful of classes.
  struct CandClass {
    markov::ChainId chain = 0;
    long speed = 0;
    bool has_program = false;
    int data_messages = 0;
    bool operator==(const CandClass&) const = default;
  };

  Rule rule_;
  const Estimator* estimator_;
  bool memo_ = true;
  mutable BuildCounts counts_;

  // The previous build, held by value (a memo reference would not survive
  // the memo's eviction), and the inputs it was built from.
  mutable BuiltConfiguration last_;
  mutable bool last_valid_ = false;
  mutable std::uint64_t last_mask_ = 0;  // the build's workers
  mutable std::vector<unsigned char> last_up_;
  mutable std::vector<model::Holdings> last_holdings_;
  mutable std::vector<int> changed_;

  // Scratch reused across build calls (cleared on entry, never observable
  // between calls).
  mutable std::vector<int> loads_;
  mutable std::vector<int> order_;
  mutable std::vector<int> cand_set_;
  mutable std::vector<int> pos_;            // proc -> index in order_ (-1)
  mutable std::vector<long> base_slots_;    // per order member: fresh need
  mutable std::vector<double> base_e_;      // per order member: comm time
  mutable std::vector<double> pre_max_;     // prefix maxes of base comm times
  mutable std::vector<double> suf_max_;     // suffix maxes of base comm times
  mutable std::vector<CandClass> classes_;
  mutable std::vector<long> ts_;            // distinct comm horizons, one round
  mutable std::vector<double> base_prod_;   // survival product over order_ per t
  mutable long total_base_ = 0;             // slot total of the round's base
  mutable long w_current_ = 0;              // max_q loads[q] * w_q, enrolled
  mutable std::uint64_t base_mask_ = 0;     // enrolled workers
};

}  // namespace tcgrid::sched
