#include "platform/cyclostationary.hpp"

#include <algorithm>
#include <stdexcept>

#include "markov/chain.hpp"

namespace tcgrid::platform {

markov::TransitionMatrix scale_departures(const markov::TransitionMatrix& m,
                                          double calm) {
  if (calm < 0.0) throw std::invalid_argument("scale_departures: calm < 0");
  std::array<std::array<double, 3>, 3> p{};
  for (std::size_t i = 0; i < markov::kNumStates; ++i) {
    const auto from = static_cast<markov::State>(i);
    double leave = 0.0;
    for (std::size_t j = 0; j < markov::kNumStates; ++j) {
      if (j == i) continue;
      p[i][j] = calm * m.prob(from, static_cast<markov::State>(j));
      leave += p[i][j];
    }
    if (leave > 1.0) {
      throw std::invalid_argument("scale_departures: calm too large for row");
    }
    p[i][i] = 1.0 - leave;
  }
  return markov::TransitionMatrix(p);
}

CyclostationaryAvailability::CyclostationaryAvailability(const Platform& platform,
                                                         std::uint64_t seed,
                                                         long period, long day_slots,
                                                         double night_calm,
                                                         InitialStates init,
                                                         util::SimdKernel kernel)
    : rng_(seed, kernel), period_(period), day_slots_(day_slots) {
  if (period_ < 1 || day_slots_ < 0 || day_slots_ > period_) {
    throw std::invalid_argument("CyclostationaryAvailability: bad period/day_slots");
  }
  day_.reserve(static_cast<std::size_t>(platform.size()));
  night_.reserve(static_cast<std::size_t>(platform.size()));
  std::vector<StepCuts> day_cuts, night_cuts;
  for (int q = 0; q < platform.size(); ++q) {
    day_.push_back(platform.proc(q).availability);
    night_.push_back(scale_departures(day_.back(), night_calm));
    day_cuts.push_back(step_cuts(day_.back()));
    night_cuts.push_back(step_cuts(night_.back()));
  }
  day_cuts_ = ChainCuts(day_cuts);
  night_cuts_ = ChainCuts(night_cuts);
  states_ = sample_initial_states(platform, rng_, init);
}

void CyclostationaryAvailability::advance() {
  // The transition into slot t+1 is governed by the destination slot's
  // regime: what happens during the night follows the night chain.
  const auto& chains = day_at(slot_ + 1) ? day_ : night_;
  for (std::size_t q = 0; q < states_.size(); ++q) {
    states_[q] = markov::step(chains[q], states_[q], rng_);
  }
  ++slot_;
}

void CyclostationaryAvailability::fill_block(markov::State* buf, long slots) {
  const auto p = states_.size();
  for (long t = 0; t < slots;) {
    // Transition t leads into slot slot_+t+1; its regime holds until the
    // destination phase reaches the end of the day (or of the period).
    const long phase = (slot_ + t + 1) % period_;
    const bool day = phase < day_slots_;
    const long run = std::min(slots - t, (day ? day_slots_ : period_) - phase);
    step_chains(day ? day_cuts_ : night_cuts_, rng_, states_.data(),
                buf + static_cast<std::size_t>(t) * p, run);
    t += run;
  }
  slot_ += slots;
}

}  // namespace tcgrid::platform
