#include "platform/availability.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if TCGRID_SIMD_X86
#include <immintrin.h>
#endif

namespace tcgrid::platform {

namespace {

using markov::State;

[[nodiscard]] inline State next_state(const ChainCuts& cuts, State s, std::uint64_t draw,
                                      std::size_t q) noexcept {
  const std::uint64_t x = std::min(draw, util::kU01Top);
  return x < cuts.cut(s, 0)[q]   ? State::Up
         : x < cuts.cut(s, 1)[q] ? State::Reclaimed
                                 : State::Down;
}

// The reference kernel: slot by slot, chain by chain.
void step_scalar(const ChainCuts& cuts, const std::uint64_t* draws, State* state, State* buf,
                 long slots) {
  const auto p = static_cast<std::size_t>(cuts.size());
  for (long t = 0; t < slots; ++t) {
    std::copy_n(state, p, buf);
    buf += p;
    for (std::size_t q = 0; q < p; ++q) state[q] = next_state(cuts, state[q], *draws++, q);
  }
}

// The vector kernel steps one chunk of lanes (chains) through every slot of
// the block before moving to the next chunk: chains are independent, so the
// order is free, and a chunk's six cut vectors and its state stay in
// registers for the whole block.
#if TCGRID_SIMD_X86

// kAvx2Next[lt_lo | lt_hi << 4]: the four next-state bytes for the 4-bit
// "draw below cut 0" and "draw below cut 1" lane masks.
constexpr auto kAvx2Next = [] {
  std::array<std::uint32_t, 256> table{};
  for (unsigned m = 0; m < 256; ++m) {
    std::uint32_t bytes = 0;
    for (unsigned lane = 0; lane < 4; ++lane) {
      const std::uint32_t s = (m >> lane & 1) != 0 ? 0 : (m >> (lane + 4) & 1) != 0 ? 1 : 2;
      bytes |= s << (8 * lane);
    }
    table[m] = bytes;
  }
  return table;
}();

// AVX2 has no unsigned 64-bit compare: both sides are flipped by 2^63 and
// compared signed. The clamp min(x, kU01Top) only changes x = 2^64-1, where
// cmpeq(x, ~0) adds -1.
TCGRID_TARGET_AVX2 void step_avx2(const ChainCuts& cuts, const std::uint64_t* draws,
                                  State* state, State* buf, long slots) {
  const auto p = static_cast<std::size_t>(cuts.size());
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t q0 = 0;
  for (; q0 + 4 <= p; q0 += 4) {
    // (Lambdas would not inherit the target attribute, hence the macro.)
#define TCGRID_FLIPPED_CUTS(s, k) \
  _mm256_xor_si256(                \
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cuts.cut(s, k) + q0)), sign)
    const __m256i up_lo = TCGRID_FLIPPED_CUTS(State::Up, 0);
    const __m256i up_hi = TCGRID_FLIPPED_CUTS(State::Up, 1);
    const __m256i rec_lo = TCGRID_FLIPPED_CUTS(State::Reclaimed, 0);
    const __m256i rec_hi = TCGRID_FLIPPED_CUTS(State::Reclaimed, 1);
    const __m256i down_lo = TCGRID_FLIPPED_CUTS(State::Down, 0);
    const __m256i down_hi = TCGRID_FLIPPED_CUTS(State::Down, 1);
#undef TCGRID_FLIPPED_CUTS
    std::uint32_t bytes = 0;
    std::memcpy(&bytes, state + q0, 4);
    const __m256i s = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(bytes)));
    const __m256i is_rec = _mm256_cmpeq_epi64(s, _mm256_set1_epi64x(1));
    const __m256i is_down = _mm256_cmpeq_epi64(s, _mm256_set1_epi64x(2));
    __m256i lo = _mm256_blendv_epi8(_mm256_blendv_epi8(up_lo, rec_lo, is_rec), down_lo, is_down);
    __m256i hi = _mm256_blendv_epi8(_mm256_blendv_epi8(up_hi, rec_hi, is_rec), down_hi, is_down);
    const std::uint64_t* x_ptr = draws + q0;
    State* row = buf + q0;
    for (long t = 0; t < slots; ++t, x_ptr += p, row += p) {
      std::memcpy(row, &bytes, 4);
      __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x_ptr));
      x = _mm256_add_epi64(x, _mm256_cmpeq_epi64(x, ones));
      x = _mm256_xor_si256(x, sign);
      const __m256i lt_lo = _mm256_cmpgt_epi64(lo, x);
      const __m256i lt_hi = _mm256_cmpgt_epi64(hi, x);
      const int m_lo = _mm256_movemask_pd(_mm256_castsi256_pd(lt_lo));
      const int m_hi = _mm256_movemask_pd(_mm256_castsi256_pd(lt_hi));
      bytes = kAvx2Next[static_cast<std::size_t>(m_lo | m_hi << 4)];
      lo = _mm256_blendv_epi8(_mm256_blendv_epi8(down_lo, rec_lo, lt_hi), up_lo, lt_lo);
      hi = _mm256_blendv_epi8(_mm256_blendv_epi8(down_hi, rec_hi, lt_hi), up_hi, lt_lo);
    }
    std::memcpy(state + q0, &bytes, 4);
  }
  // The last p % 4 chains, one lane at a time.
  for (; q0 < p; ++q0) {
    State s = state[q0];
    for (long t = 0; t < slots; ++t) {
      const auto at = static_cast<std::size_t>(t) * p + q0;
      buf[at] = s;
      s = next_state(cuts, s, draws[at], q0);
    }
    state[q0] = s;
  }
}
#endif

}  // namespace

ChainCuts::ChainCuts(const std::vector<StepCuts>& per_proc)
    : cuts_(per_proc.size() * 2 * markov::kNumStates),
      procs_(static_cast<int>(per_proc.size())) {
  for (std::size_t row = 0; row < 2 * markov::kNumStates; ++row) {
    for (std::size_t q = 0; q < per_proc.size(); ++q) {
      cuts_[row * per_proc.size() + q] = per_proc[q][row / 2][row % 2];
    }
  }
}

void step_chains(util::SimdKernel kernel, const ChainCuts& cuts, const std::uint64_t* draws,
                 State* state, State* buf, long slots) {
#if TCGRID_SIMD_X86
  if (kernel == util::SimdKernel::Avx2) return step_avx2(cuts, draws, state, buf, slots);
#endif
  (void)kernel;
  step_scalar(cuts, draws, state, buf, slots);
}

void step_chains(const ChainCuts& cuts, util::Rng& rng, State* state, State* buf, long slots) {
  const auto p = static_cast<std::size_t>(cuts.size());
  if (p == 0 || slots <= 0) return;
  // Draws are generated per chunk of at most ~kChunkDraws words (32 KiB),
  // a per-thread scratch buffer reused across calls and sources.
  constexpr std::size_t kChunkDraws = 4096;
  const long per_chunk = static_cast<long>(std::max<std::size_t>(1, kChunkDraws / p));
  thread_local std::vector<std::uint64_t> draws;
  const util::SimdKernel kernel = rng.engine().kernel();
  while (slots > 0) {
    const long n = std::min(slots, per_chunk);
    const std::size_t words = static_cast<std::size_t>(n) * p;
    if (draws.size() < words) draws.resize(words);
    rng.engine().fill(draws.data(), words);
    step_chains(kernel, cuts, draws.data(), state, buf, n);
    buf += words;
    slots -= n;
  }
}

StepCuts step_cuts(const markov::TransitionMatrix& m) {
  // The matrix precomputes its cut table at construction (the binary
  // searches are too costly to redo per availability source when thousands
  // of paired trials share one platform); this keeps the historical entry
  // point.
  return m.step_cut_table();
}

std::vector<markov::State> sample_initial_states(const Platform& platform,
                                                 util::Rng& rng, InitialStates init) {
  std::vector<markov::State> states(static_cast<std::size_t>(platform.size()));
  for (int q = 0; q < platform.size(); ++q) {
    if (init == InitialStates::AllUp) {
      states[static_cast<std::size_t>(q)] = markov::State::Up;
      // Consume one draw anyway so both modes use identical stream layouts.
      (void)rng.uniform01();
      continue;
    }
    const auto pi = platform.proc(q).availability.stationary();
    const double u = rng.uniform01();
    markov::State s = markov::State::Down;
    if (u < pi[0]) s = markov::State::Up;
    else if (u < pi[0] + pi[1]) s = markov::State::Reclaimed;
    states[static_cast<std::size_t>(q)] = s;
  }
  return states;
}

MarkovAvailability::MarkovAvailability(const Platform& platform, std::uint64_t seed,
                                       InitialStates init, util::SimdKernel kernel)
    : platform_(platform), rng_(seed, kernel) {
  std::vector<StepCuts> per_proc;
  per_proc.reserve(static_cast<std::size_t>(platform.size()));
  for (int q = 0; q < platform.size(); ++q) {
    per_proc.push_back(step_cuts(platform.proc(q).availability));
  }
  cuts_ = ChainCuts(per_proc);
  states_ = sample_initial_states(platform, rng_, init);
}

void MarkovAvailability::advance() {
  for (int q = 0; q < platform_.size(); ++q) {
    auto& s = states_[static_cast<std::size_t>(q)];
    s = markov::step(platform_.proc(q).availability, s, rng_);
  }
  ++slot_;
}

void MarkovAvailability::fill_block(markov::State* buf, long slots) {
  step_chains(cuts_, rng_, states_.data(), buf, slots);
  slot_ += slots;
}

FixedAvailability::FixedAvailability(std::vector<std::vector<markov::State>> timeline)
    : timeline_(std::move(timeline)) {
  if (timeline_.empty()) throw std::invalid_argument("FixedAvailability: empty timeline");
  procs_ = static_cast<int>(timeline_.front().size());
  for (const auto& row : timeline_) {
    if (static_cast<int>(row.size()) != procs_) {
      throw std::invalid_argument("FixedAvailability: ragged timeline");
    }
  }
}

markov::State FixedAvailability::state(int q) const {
  if (q < 0 || q >= procs_) throw std::out_of_range("FixedAvailability::state");
  if (slot_ >= static_cast<long>(timeline_.size())) return markov::State::Up;
  return timeline_[static_cast<std::size_t>(slot_)][static_cast<std::size_t>(q)];
}

}  // namespace tcgrid::platform
