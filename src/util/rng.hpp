// Deterministic random number generation with hierarchical stream derivation.
//
// Reproducibility is the backbone of the whole experiment harness: a trial's
// availability realization must be a pure function of (scenario seed, trial
// index) so that every heuristic evaluated on that trial sees the *same*
// processor availability (paired comparison, as in the paper's methodology).
//
// The engine is util::Mt19937_64, an in-tree MT19937-64 that produces
// exactly std::mt19937_64's stream but regenerates its 312-word state in one
// vectorized twist-and-temper pass and hands draws out in bulk (fill), so the
// availability fast path pays about a nanosecond per raw draw. Child seeds
// are derived with SplitMix64, the recommended way to spawn decorrelated
// streams from a single seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

#include "util/simd.hpp"

namespace tcgrid::util {

/// SplitMix64 step: maps a 64-bit state to a well-mixed 64-bit output.
/// Used both as a seed scrambler and to derive independent child seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine a parent seed with a stream index into a child seed.
/// Distinct (seed, stream) pairs yield decorrelated child seeds.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t seed,
                                                  std::uint64_t stream) noexcept {
  return splitmix64(seed ^ splitmix64(stream ^ 0xa5a5a5a5a5a5a5a5ULL));
}

/// Two-index child-seed derivation: chains derive_seed through both indices,
/// so distinct (a, b) pairs map to distinct streams by construction. The
/// scenario grid uses this for its cell seeds — unlike the historical
/// additive scheme (`cell * 1000 + s`), no (cell, s) pair can collide with a
/// neighbouring cell's stream regardless of how large either index grows.
[[nodiscard]] constexpr std::uint64_t derive_seed2(std::uint64_t seed, std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  return derive_seed(derive_seed(seed, a), b);
}

/// The exact bit-to-[0,1) mapping behind Rng::uniform01: one 64-bit draw,
/// rounded to double and scaled by 2^-64 (a power-of-two scale, hence exact),
/// clamped into [0, 1). This mapping is fully specified — MT19937-64 plus
/// this function pins every uniform01-driven stream (the Markov and
/// cyclostationary availability families) bit-for-bit across standard
/// libraries, where std::uniform_real_distribution's output is
/// implementation-defined (on libstdc++/GCC 12 this function reproduces it
/// exactly). Streams drawn through other std distributions (weibull(),
/// uniform_int(), uniform(lo, hi)) remain implementation-defined.
[[nodiscard]] constexpr double u01_from_bits(std::uint64_t x) noexcept {
  const double u = static_cast<double>(x) * 0x1p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
}

/// Raw draws >= kU01Top round to the same double as kU01Top, so clamping a
/// draw to kU01Top preserves u01_from_bits exactly while keeping thresholds
/// representable in 64 bits (see uniform01_cut).
inline constexpr std::uint64_t kU01Top = ~0ULL - 1;

/// Integer threshold equivalent of a comparison against u01_from_bits:
///
///   u01_from_bits(x) < c   <=>   min(x, kU01Top) < uniform01_cut(c)
///
/// for EVERY raw draw x and any double c. Computed by binary search over the
/// (monotone) mapping, so the equivalence is exact — including degenerate
/// rows (c <= 0 never fires; c > max attainable value always fires). This is
/// what lets the block-stepped availability fast path replace the per-step
/// double conversion + compare with one integer compare while remaining
/// bit-identical to the reference path.
[[nodiscard]] constexpr std::uint64_t uniform01_cut(double c) noexcept {
  if (u01_from_bits(0) >= c) return 0;           // no draw ever lies below c
  if (u01_from_bits(kU01Top) < c) return ~0ULL;  // every draw lies below c
  std::uint64_t lo = 0, hi = kU01Top;  // invariant: u01(lo) < c <= u01(hi)
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (u01_from_bits(mid) < c) lo = mid;
    else hi = mid;
  }
  return hi;
}

/// MT19937-64 with the exact output stream of std::mt19937_64 (same seeding,
/// same twist, same tempering), so every std distribution driven by it draws
/// what it would draw from the standard engine. It is a
/// UniformRandomBitGenerator. The difference is the refill: when the 312
/// buffered outputs run out, one pass of the chosen kernel twists the
/// whole state and tempers it into an output buffer, and draws are then
/// served from that buffer — one at a time by operator(), or copied out in
/// bulk by fill().
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;

  /// Seeded as std::mt19937_64(seed). `kernel` pins the refill kernel (tests
  /// and benches run every kernel the host supports; an unsupported one
  /// falls back to scalar). The stream does not depend on it.
  explicit Mt19937_64(result_type seed, SimdKernel kernel = simd_kernel());

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (pos_ == state_size) refill();
    return out_[pos_++];
  }

  /// The next n draws, in stream order: identical to n calls of operator().
  void fill(result_type* dst, std::size_t n) noexcept;

  [[nodiscard]] SimdKernel kernel() const noexcept { return kernel_; }

 private:
  /// Twists the state and tempers it into out_ with kernel_.
  void refill() noexcept;

  /// The 312 MT words plus a 4-word mirror of the new x[0..3], which the
  /// refill writes once its first chunk is done, so that lane 311, whose
  /// x[i+1] wraps past the end, reads the new x[0] contiguously.
  alignas(64) std::array<result_type, state_size + 4> x_{};
  alignas(64) std::array<result_type, state_size> out_{};
  std::size_t pos_ = state_size;
  SimdKernel kernel_;
};

/// Seeded pseudo-random generator with the distributions the library needs.
///
/// All stochastic components (scenario generation, availability sampling,
/// the RANDOM heuristic) take an explicit Rng; nothing reads global state.
class Rng {
 public:
  /// `kernel` as for Mt19937_64.
  explicit Rng(std::uint64_t seed, SimdKernel kernel = simd_kernel())
      : engine_(splitmix64(seed), kernel), seed_(seed) {}

  /// The seed this generator was constructed with (pre-scrambling).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Child generator for an independent stream, e.g. one per trial.
  [[nodiscard]] Rng spawn(std::uint64_t stream) const {
    return Rng(derive_seed(seed_, stream));
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1): exactly u01_from_bits of one engine draw.
  /// Availability streams are pinned to this mapping (see u01_from_bits);
  /// the block-stepped fast path relies on it via uniform01_cut.
  [[nodiscard]] double uniform01() { return u01_from_bits(engine_()); }

  /// Uniform integer in the closed range [lo, hi].
  [[nodiscard]] long uniform_int(long lo, long hi) {
    return std::uniform_int_distribution<long>(lo, hi)(engine_);
  }

  /// Index in [0, n): convenience for choosing among n alternatives.
  [[nodiscard]] std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<long>(n) - 1));
  }

  /// Weibull-distributed positive real (shape k, scale lambda).
  /// Used by the semi-Markov availability extension.
  [[nodiscard]] double weibull(double shape, double scale) {
    return std::weibull_distribution<double>(shape, scale)(engine_);
  }

  /// Exponential with given rate (> 0).
  [[nodiscard]] double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Access to the underlying engine for std algorithms (e.g. std::shuffle).
  [[nodiscard]] Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace tcgrid::util
