// Cyclostationary (day/night modulated) Markov availability.
//
// Desktop-grid traces are strongly diurnal: machines are claimed by their
// owners during working hours and idle overnight (Kondo et al. 2004, Javadi
// et al. 2009). A single homogeneous Markov chain cannot express that; this
// source switches each processor between two transition matrices on a fixed
// phase schedule — the "day" chain (the platform's own, owner interference
// high) during the first day_slots of every period, and a calmer "night"
// chain (all departure probabilities scaled by night_calm < 1) for the rest.
//
// Like MarkovAvailability it consumes exactly one uniform per processor per
// slot in processor order, so realizations are pure functions of the seed
// and pair across heuristics.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/availability.hpp"

namespace tcgrid::platform {

/// `m` with every off-diagonal (departure) probability scaled by `calm` and
/// the self-loops raised to keep rows stochastic. calm < 1 yields a quieter
/// chain (longer sojourns, same conditional jump distribution); calm = 1 is
/// the identity transform. Throws std::invalid_argument unless the scaled
/// rows remain distributions (calm * (1 - P_ii) <= 1 for every row).
[[nodiscard]] markov::TransitionMatrix scale_departures(const markov::TransitionMatrix& m,
                                                        double calm);

class CyclostationaryAvailability final : public AvailabilitySource {
 public:
  /// Day chains are the platform's per-processor matrices; night chains are
  /// scale_departures(day, night_calm). Slot t is a day slot when
  /// t % period < day_slots. Initial states follow `init` against the day
  /// chain (same draw layout as MarkovAvailability).
  /// `kernel` as for MarkovAvailability.
  CyclostationaryAvailability(const Platform& platform, std::uint64_t seed,
                              long period, long day_slots, double night_calm,
                              InitialStates init = InitialStates::Stationary,
                              util::SimdKernel kernel = util::simd_kernel());

  [[nodiscard]] int size() const override { return static_cast<int>(states_.size()); }
  [[nodiscard]] markov::State state(int q) const override {
    return states_[static_cast<std::size_t>(q)];
  }
  void advance() override;
  [[nodiscard]] long position() const override { return slot_; }

  /// Fast path: splits the block into runs of transitions under one regime
  /// and steps each run with step_chains over that regime's cut table — the
  /// same kernel and bulk draws as MarkovAvailability. Bit-identical to
  /// advance().
  void fill_block(markov::State* buf, long slots) override;

  [[nodiscard]] bool day_at(long slot) const noexcept {
    return slot % period_ < day_slots_;
  }

 private:
  util::Rng rng_;
  std::vector<markov::State> states_;
  std::vector<markov::TransitionMatrix> day_;    ///< per-processor, for advance()
  std::vector<markov::TransitionMatrix> night_;
  ChainCuts day_cuts_;
  ChainCuts night_cuts_;
  long period_;
  long day_slots_;
  long slot_ = 0;  ///< slot the CURRENT states belong to
};

}  // namespace tcgrid::platform
