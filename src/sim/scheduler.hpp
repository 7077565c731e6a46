// The engine's extension point: an on-line scheduler.
//
// The engine calls `decide` once per time slot, before processing
// communications/computation for that slot. The view deliberately exposes
// only on-line information: current states, holdings, and progress — never
// future availability. (The paper's heuristics additionally know each
// processor's Markov model, which is part of the platform description.)
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "markov/state.hpp"
#include "model/application.hpp"
#include "model/configuration.hpp"
#include "model/holdings.hpp"
#include "platform/platform.hpp"

namespace tcgrid::sim {

/// Everything a scheduler may observe at a decision point.
struct SchedulerView {
  long slot = 0;                        ///< current time slot
  const platform::Platform* platform = nullptr;
  const model::Application* app = nullptr;

  std::span<const markov::State> states;    ///< per-processor state, this slot
  std::span<const model::Holdings> holdings;  ///< per-processor possessions

  /// Current configuration, or nullptr when none is in place (start of run,
  /// start of an iteration, or after a failure aborted the previous one).
  const model::Configuration* config = nullptr;

  long iteration_elapsed = 0;  ///< slots since the current iteration began
  long compute_total = 0;      ///< W for the current configuration (0 if none)
  long compute_done = 0;       ///< all-UP compute slots already banked

  /// Remaining communication slots per processor under the current
  /// configuration (0 for un-enrolled processors), including credit for the
  /// in-flight partial message.
  std::span<const long> comm_remaining;

  [[nodiscard]] bool has_config() const noexcept {
    return config != nullptr && !config->empty();
  }
};

/// Quiescence report: how long the answer of the most recent decide() call
/// is guaranteed stable, so the engine's event-horizon loop (DESIGN.md §8)
/// can fast-forward homogeneous slots without consulting the scheduler.
///
/// A report is a PROMISE about hypothetical future decide() calls: "given
/// the engine-visible changes listed below have not happened, decide() would
/// return exactly what it just returned, and calling it would have no side
/// effects (no RNG draws, no per-slot observation)". The engine never skips
/// a consult the report does not cover, so the default (EverySlot) is always
/// sound and keeps any third-party scheduler on the legacy per-slot path.
struct Quiescence {
  enum class Kind : unsigned char {
    /// The decision may differ at the very next slot even if nothing
    /// observable changed (stateful or time-dependent policies: RANDOM when
    /// idle, the IY rule, UPTIME/ADAPT-* which observe every slot).
    EverySlot,
    /// The decision is a pure function of the full UP set (holdings-blind
    /// ranking policies): consult again when ANY processor's UP-membership
    /// changes, in either direction.
    UntilUpSetChanges,
    /// The decision can only change on one of these events:
    ///   * a processor JOINS the UP set (new placement option),
    ///   * a `watched` processor's UP-membership changes,
    ///   * an enrolled processor changes state (engine-side: a DOWN
    ///     restarts the iteration, a RECLAIMED pauses its transfer),
    ///   * a program or data message completes, or an iteration boundary
    ///     (engine-side),
    ///   * more than `horizon` slots elapse.
    /// UP-set *shrinks* outside `watched` are guaranteed irrelevant (see
    /// DESIGN.md §8 for why this holds for the incremental builder). So is
    /// transfer progress short of a message completion: an answer given
    /// during a configuration's comm phase promises to hold while its
    /// transfers progress, and the engine bulk-advances comm slots on it. A
    /// scheduler that cannot promise that reports EverySlot there instead.
    UntilEvent,
    /// "No change" is guaranteed for as long as the engine keeps the current
    /// configuration installed, whatever happens to states or holdings
    /// (passive policies, which never preempt a running configuration).
    WhileConfigured,
  };

  static constexpr long kUnbounded = std::numeric_limits<long>::max();

  Kind kind = Kind::EverySlot;

  /// Extra slot bound on stability (UntilEvent only): the answer expires
  /// after this many further slots even without any event. Used by
  /// time-dependent criteria (the yield's elapsed-time denominator).
  long horizon = kUnbounded;

  /// UntilEvent: processors whose UP-membership change invalidates the
  /// answer beyond the engine-side events (the memoized candidate's
  /// workers).
  std::vector<int> watched;
};

/// On-line scheduling policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Return a new configuration to install (its workers must all be UP in
  /// this slot), or std::nullopt to keep the current one (or stay idle when
  /// there is none). Installing a new configuration over an existing one
  /// aborts the in-progress computation (tight coupling: partial work lost).
  virtual std::optional<model::Configuration> decide(const SchedulerView& view) = 0;

  /// Quiescence report for the MOST RECENT decide() call. The reference is
  /// valid until the next decide(). Implementations that do not override
  /// this are consulted every slot (always sound).
  [[nodiscard]] virtual const Quiescence& quiescence() const {
    static const Quiescence every_slot{};
    return every_slot;
  }

  /// Human-readable policy name (e.g. "Y-IE").
  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace tcgrid::sim
