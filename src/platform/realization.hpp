// Materialized availability realizations: generate once, read many times.
//
// The paper's methodology is paired comparison — every heuristic evaluated
// on a (scenario, trial) faces the IDENTICAL availability realization. The
// historical way to reproduce that pairing is re-seeding: each heuristic run
// regenerates the stream from scratch (one RNG draw per processor per slot
// for the Markov family). A Realization materializes one trial's timeline
// exactly once, through the same fill_block contract live consumers use,
// and every later run reads it back through a RealizationView, an ordinary
// AvailabilitySource (see DESIGN.md §9):
//
//   * storage is columnar run-length encoding — per-worker state intervals.
//     Paper-world self-loop probabilities are 0.90..0.99, so state runs
//     average 10..100 slots and the RLE is roughly an order of magnitude
//     smaller than the dense [slot x proc] matrix;
//   * materialization is lazy: slots are pulled from the wrapped source in
//     chunks as consumers reach for them, so a trial only ever materializes
//     as far as its longest run actually simulates (makespans are typically
//     a few hundred slots against a 10^6 slot cap);
//   * memory is bounded by a byte budget; crossing it throws
//     RealizationBudgetExceeded, which api::Session catches to fall back to
//     live generation (bit-identical, just slower);
//   * once frozen, views expand the materialized prefix and continue on the
//     wrapped source past it, so the last consumer's tail is never recorded.
//
// Bit-identity: the wrapped source is pulled exclusively through
// fill_block, whose contract (availability.hpp) guarantees identical draws
// however the stream is chunked, so expand_rows reproduces live generation
// exactly for every family in the scen registry.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <vector>

#include "markov/state.hpp"
#include "platform/availability.hpp"

namespace tcgrid::platform {

/// Thrown when materializing further slots would exceed the realization's
/// byte budget. The caller owns the fallback policy (api::Session reruns
/// the interrupted simulation against live generation).
class RealizationBudgetExceeded : public std::runtime_error {
 public:
  RealizationBudgetExceeded(std::size_t bytes, std::size_t budget)
      : std::runtime_error("Realization: " + std::to_string(bytes) +
                           " bytes exceeds budget of " + std::to_string(budget)),
        bytes_(bytes),
        budget_(budget) {}

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

 private:
  std::size_t bytes_;
  std::size_t budget_;
};

/// One trial's availability timeline, materialized lazily from an owned
/// source and shared (sequentially) by every run of that trial. NOT
/// thread-safe: reads extend the materialized prefix on demand.
class Realization {
 public:
  /// Takes ownership of `source` (which must be freshly constructed, i.e.
  /// at position 0). `budget_bytes` bounds the materialized representation;
  /// 0 means unlimited.
  explicit Realization(std::unique_ptr<AvailabilitySource> source,
                       std::size_t budget_bytes = 0);

  [[nodiscard]] int size() const noexcept { return p_; }

  /// Slots materialized so far (the stream prefix [0, frontier())).
  [[nodiscard]] long frontier() const noexcept { return frontier_; }

  /// Current footprint of the materialized representation.
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  /// Materialize through slot `slots` (exclusive); no-op when already
  /// covered. Pulls the source in fixed chunks, so the frontier may end up
  /// slightly past `slots`. Throws RealizationBudgetExceeded when the
  /// representation would outgrow the budget. Must not be called past the
  /// frontier once frozen.
  void ensure(long slots);

  /// Stop materializing: everything past the current frontier will have
  /// exactly ONE consumer (api::Session freezes a realization when its
  /// unit's LAST heuristic starts), so recording it would be pure overhead.
  /// A RealizationView instead continues on the embedded source, which
  /// sits exactly at the frontier (materialization consumes it through
  /// fill_block and nothing else ever touches it). The materialized prefix
  /// [0, frontier()) remains fully readable.
  void freeze() noexcept { frozen_ = true; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// The embedded source, positioned at frontier() until a view of the
  /// frozen realization reads past it.
  [[nodiscard]] AvailabilitySource& source() noexcept { return *source_; }

  /// Write rows [begin, end) of the timeline into `buf`, row-major
  /// [slot][proc] exactly as AvailabilitySource::fill_block would have.
  /// Requires end <= frontier() (call ensure first) and begin <= end.
  void expand_rows(long begin, long end, markov::State* buf) const;

 private:
  struct Run {
    long begin;           ///< first slot of the run
    markov::State state;  ///< state held through the run
  };

  /// Index of worker q's run containing `slot` (cursor hints, then binary
  /// search). Requires slot < frontier_.
  [[nodiscard]] std::size_t locate(std::size_t q, long slot) const;

  void materialize_chunk(long slots);

  std::unique_ptr<AvailabilitySource> source_;
  int p_;
  long frontier_ = 0;
  std::size_t budget_ = 0;
  std::size_t bytes_ = 0;
  bool frozen_ = false;

  std::vector<std::vector<Run>> runs_;  ///< per worker, begin-ascending
  std::size_t total_runs_ = 0;          ///< sum of runs_[q].size()

  std::vector<markov::State> scratch_;   ///< chunk staging buffer
  std::vector<markov::State> last_row_;  ///< row frontier_-1 (run carry)

  /// Per-worker run-index hints: expansion is overwhelmingly sequential
  /// (each view walks the timeline front to back), so remembering where
  /// the last expansion left off skips the binary search.
  mutable std::vector<std::size_t> cursor_;

  /// expand_rows scratch: the run starts inside the expanded range, as one
  /// singly linked list per row (row_head_[r] indexes starts_, -1 ends).
  struct RunStart {
    long next;            ///< next start on the same row, or -1
    std::size_t q;        ///< worker
    markov::State state;  ///< its state from this row on
  };
  mutable std::vector<RunStart> starts_;
  mutable std::vector<long> row_head_;
};

/// AvailabilitySource over a Realization: how the engine and every other
/// consumer read a materialized timeline. Reads extend the realization on
/// demand, so state()/fill_block can throw RealizationBudgetExceeded. Past
/// the frontier of a FROZEN realization the view continues on its embedded
/// source instead, so the stream stays unbroken and only the view knows
/// about freezing; at most one view may read past that frontier. Views are
/// independent: each starts at slot 0 and tracks its own position (the
/// shared Realization itself is single-threaded).
class RealizationView final : public AvailabilitySource {
 public:
  explicit RealizationView(Realization& realization);

  [[nodiscard]] int size() const override { return realization_->size(); }
  [[nodiscard]] markov::State state(int q) const override;
  void advance() override;
  [[nodiscard]] long position() const override { return pos_; }
  void fill_block(markov::State* buf, long slots) override;

 private:
  /// True when slot pos_ lies past a frozen frontier (the live tail).
  [[nodiscard]] bool in_live_tail() const;
  /// The frozen realization's embedded source; throws std::logic_error
  /// unless it stands exactly at pos_ (another reader took the tail).
  [[nodiscard]] AvailabilitySource& tail_source() const;

  Realization* realization_;
  long pos_ = 0;
  mutable long row_slot_ = -1;  ///< slot cached in row_ (-1: none)
  mutable std::vector<markov::State> row_;
};

}  // namespace tcgrid::platform
