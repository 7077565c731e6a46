// Heuristic factory keyed by the paper's names ("IE", "Y-IE", "RANDOM", ...).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sched/estimator.hpp"
#include "sched/incremental.hpp"
#include "sim/scheduler.hpp"

namespace tcgrid::sched {

/// All 17 heuristic names evaluated by the paper, in a stable order:
/// RANDOM, the 4 passive heuristics, then the 12 proactive combinations.
[[nodiscard]] const std::vector<std::string>& all_heuristic_names();

/// The 8 heuristics reported in Table II / Figure 2 (best performers + IE).
[[nodiscard]] const std::vector<std::string>& tableii_heuristic_names();

/// Extension heuristics beyond the paper's 17: knowledge-light literature
/// baselines (FASTEST, MOSTAVAIL, UPTIME) and model-free adaptive variants
/// (ADAPT-IE, ADAPT-Y-IE, ...). All accepted by make_scheduler.
[[nodiscard]] const std::vector<std::string>& extension_heuristic_names();

/// Instantiate a scheduler by paper name. `seed` only matters for RANDOM.
/// Throws std::invalid_argument for unknown names. The estimator must
/// outlive the scheduler.
[[nodiscard]] std::unique_ptr<sim::Scheduler> make_scheduler(std::string_view name,
                                                             const Estimator& estimator,
                                                             std::uint64_t seed = 0);

/// True if `name` is a valid heuristic name.
[[nodiscard]] bool is_heuristic_name(std::string_view name);

/// How `scheduler`'s configuration builds were answered so far (all zero
/// for schedulers without an incremental builder).
[[nodiscard]] BuildCounts build_counts(const sim::Scheduler& scheduler);

}  // namespace tcgrid::sched
