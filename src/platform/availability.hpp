// Sources of per-slot processor availability.
//
// The engine pulls states through the AvailabilitySource interface, either
// one slot at a time (state/advance) or in dense blocks (fill_block — the
// fast path, see DESIGN.md §7). The Markov implementation draws exactly one
// uniform per processor per slot in processor order, so a realization is a
// pure function of its seed — every heuristic evaluated on the same trial
// sees the same availability (paired comparisons, as in the paper's
// methodology), and the per-slot and block paths yield identical timelines.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "markov/chain.hpp"
#include "markov/state.hpp"
#include "platform/platform.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace tcgrid::platform {

/// Abstract per-slot availability stream for `p` processors.
class AvailabilitySource {
 public:
  virtual ~AvailabilitySource() = default;

  /// Number of processors.
  [[nodiscard]] virtual int size() const = 0;

  /// State of processor q at the current slot.
  [[nodiscard]] virtual markov::State state(int q) const = 0;

  /// Advance to the next slot.
  virtual void advance() = 0;

  /// Index of the CURRENT slot within this source's stream: 0 at
  /// construction, incremented once per advance(), so fill_block(buf, n)
  /// leaves it n slots higher. Consumers that prefetch (the engine pulls
  /// avail_block slots at a time) leave the source past the last slot they
  /// simulated; position() is how a caller observes exactly where the
  /// stream stands instead of guessing at the overshoot (see
  /// api::Session::run_custom).
  [[nodiscard]] virtual long position() const = 0;

  /// Block-stepping contract: write the states of the next `slots` slots
  /// (starting with the CURRENT one) into `buf`, row-major [slot][proc] with
  /// size() states per row, leaving the source positioned `slots` slots
  /// further on. Semantically identical to
  ///
  ///   for each slot: { for each q: *buf++ = state(q); } advance();
  ///
  /// which is exactly what this default does. Stochastic families override
  /// it with a tight loop that consumes the SAME random draws in the SAME
  /// order, so a realization never depends on how it was pulled; the engine
  /// consumes availability through this method to amortize the per-slot
  /// virtual dispatch (one call per block instead of size()+1 per slot).
  virtual void fill_block(markov::State* buf, long slots) {
    const int p = size();
    for (long t = 0; t < slots; ++t) {
      for (int q = 0; q < p; ++q) *buf++ = state(q);
      advance();
    }
  }
};

/// How MarkovAvailability chooses states for slot 0.
enum class InitialStates {
  AllUp,       ///< every processor starts UP
  Stationary,  ///< sampled from each chain's stationary distribution
};

/// Slot-0 states for every processor of `platform`, consuming exactly one
/// uniform01 draw per processor in processor order in BOTH modes (identical
/// stream layout, so sources sharing a seed stay paired whatever the mode).
/// Shared by every chain-based source; cross-source bit-identity (e.g. the
/// cyclostationary family with night == day degenerating to the Markov
/// family) depends on this being the single implementation.
[[nodiscard]] std::vector<markov::State> sample_initial_states(const Platform& platform,
                                                               util::Rng& rng,
                                                               InitialStates init);

/// Per-processor integer cut points for one chain row: a draw x steps to UP
/// when min(x, kU01Top) < cut[0], to RECLAIMED when < cut[1], else to DOWN —
/// the exact integer form of markov::step's double comparisons (see
/// util::uniform01_cut).
using StepCuts = std::array<std::array<std::uint64_t, 2>, markov::kNumStates>;

/// Cut points equivalent to stepping `m` via markov::step.
[[nodiscard]] StepCuts step_cuts(const markov::TransitionMatrix& m);

/// The cut points of p chains in structure-of-arrays form:
/// cut(s, k)[q] == per_proc[q][s][k]. The vector step kernels load one
/// lane-chunk of each of the six rows and keep it in registers while they
/// step those chains through a whole block of slots.
class ChainCuts {
 public:
  ChainCuts() = default;
  explicit ChainCuts(const std::vector<StepCuts>& per_proc);

  [[nodiscard]] int size() const noexcept { return procs_; }
  [[nodiscard]] const std::uint64_t* cut(markov::State from, int k) const noexcept {
    return cuts_.data() +
           (static_cast<std::size_t>(from) * 2 + static_cast<std::size_t>(k)) *
               static_cast<std::size_t>(procs_);
  }

 private:
  std::vector<std::uint64_t> cuts_;
  int procs_ = 0;
};

/// The block-stepping kernel shared by every chain-based source. Steps all
/// p = cuts.size() chains through `slots` transitions: row t of `buf`
/// (p states) receives the states before transition t, and `state` is left
/// holding the states after the last one. Transition t of chain q consumes
/// draws[t*p + q] — slot-major, processor-minor, the order advance() draws
/// in — and moves to UP when min(draw, kU01Top) < cut(s, 0)[q], to
/// RECLAIMED when it is < cut(s, 1)[q], else to DOWN (s = current state).
/// Every kernel gives identical output; Scalar is the reference.
void step_chains(util::SimdKernel kernel, const ChainCuts& cuts, const std::uint64_t* draws,
                 markov::State* state, markov::State* buf, long slots);

/// step_chains over slots × p raw draws taken from `rng` in bulk
/// (Mt19937_64::fill), in bounded chunks, with the kernel of rng's engine.
void step_chains(const ChainCuts& cuts, util::Rng& rng, markov::State* state,
                 markov::State* buf, long slots);

/// Lazy sampler of the paper's independent per-processor Markov chains.
class MarkovAvailability final : public AvailabilitySource {
 public:
  /// `kernel` picks the SIMD kernels of the engine refill and of fill_block
  /// (benches and tests pin each one; the realization does not depend on it).
  MarkovAvailability(const Platform& platform, std::uint64_t seed,
                     InitialStates init = InitialStates::Stationary,
                     util::SimdKernel kernel = util::simd_kernel());

  [[nodiscard]] int size() const override { return static_cast<int>(states_.size()); }
  [[nodiscard]] markov::State state(int q) const override {
    return states_[static_cast<std::size_t>(q)];
  }
  void advance() override;
  [[nodiscard]] long position() const override { return slot_; }

  /// Fast path: draws the block's slots × p raw words in bulk and steps
  /// every chain through precomputed integer cut points with step_chains
  /// (two compares per processor-slot, all p chains of a slot at once).
  /// Bit-identical to advance()'s markov::step reference path.
  void fill_block(markov::State* buf, long slots) override;

 private:
  const Platform& platform_;
  util::Rng rng_;
  std::vector<markov::State> states_;
  ChainCuts cuts_;
  long slot_ = 0;
};

/// Fixed, scripted availability (used by tests and the Figure 1 example).
/// Beyond the scripted horizon all processors are reported UP.
class FixedAvailability final : public AvailabilitySource {
 public:
  /// `timeline[t][q]` is the state of processor q at slot t.
  explicit FixedAvailability(std::vector<std::vector<markov::State>> timeline);

  [[nodiscard]] int size() const override { return procs_; }
  [[nodiscard]] markov::State state(int q) const override;
  void advance() override { ++slot_; }
  [[nodiscard]] long position() const override { return slot_; }

  [[nodiscard]] long slot() const noexcept { return slot_; }

 private:
  std::vector<std::vector<markov::State>> timeline_;
  int procs_;
  long slot_ = 0;
};

}  // namespace tcgrid::platform
