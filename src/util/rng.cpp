#include "util/rng.hpp"

#include <algorithm>
#include <cstring>

#if TCGRID_SIMD_X86
#include <immintrin.h>
#endif

namespace tcgrid::util {

namespace {

// MT19937-64 parameters (Matsumoto & Nishimura; std::mt19937_64).
constexpr std::size_t kN = Mt19937_64::state_size;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpper = ~0ULL << 31;
constexpr std::uint64_t kLower = ~kUpper;
constexpr std::uint64_t kTemperD = 0x5555555555555555ULL;
constexpr std::uint64_t kTemperB = 0x71d67fffeda60000ULL;
constexpr std::uint64_t kTemperC = 0xfff7eee000000000ULL;
static_assert(kN == 2 * kM, "the kernels' far-index rule assumes n = 2m");

constexpr std::uint64_t twist_word(std::uint64_t far, std::uint64_t cur, std::uint64_t next) {
  const std::uint64_t y = (cur & kUpper) | (next & kLower);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

constexpr std::uint64_t temper(std::uint64_t y) {
  y ^= (y >> 29) & kTemperD;
  y ^= (y << 17) & kTemperB;
  y ^= (y << 37) & kTemperC;
  return y ^ (y >> 43);
}

// The reference: libstdc++'s _M_gen_rand, then tempering. Word i becomes
// x[(i+156) % 312] ^ mix(x[i], x[i+1]) in index order, so x[i+1] is always
// the old word (except for i = 311, which reads the new x[0]) and
// x[(i+156) % 312] is old for i < 156 and new for i >= 156.
void twist_scalar(std::uint64_t* x, std::uint64_t* out) noexcept {
  for (std::size_t i = 0; i < kM; ++i) x[i] = twist_word(x[i + kM], x[i], x[i + 1]);
  for (std::size_t i = kM; i < kN - 1; ++i) x[i] = twist_word(x[i - kM], x[i], x[i + 1]);
  x[kN - 1] = twist_word(x[kM - 1], x[kN - 1], x[0]);
  for (std::size_t i = 0; i < kN; ++i) out[i] = temper(x[i]);
}

// The vector kernel processes 4-word chunks in index order and is exact
// because each chunk [k, k+4) reads:
//   * x[k+1 .. k+4] before storing, so x[i+1] is old — lane 311 reads the
//     mirror x[312], which holds the new x[0] (stored after chunk 0);
//   * x[(i+156) % 312] from memory: for k < 156 that is x[k+156 ..], old
//     words not yet rewritten (156 is a multiple of 4, so no chunk straddles
//     it); for k >= 156 it is x[k-156 ..], all rewritten by earlier chunks.
#if TCGRID_SIMD_X86
TCGRID_TARGET_AVX2 void twist_avx2(std::uint64_t* x, std::uint64_t* out) noexcept {
  const __m256i upper = _mm256_set1_epi64x(static_cast<long long>(kUpper));
  const __m256i lower = _mm256_set1_epi64x(static_cast<long long>(kLower));
  const __m256i matrix_a = _mm256_set1_epi64x(static_cast<long long>(kMatrixA));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i d = _mm256_set1_epi64x(static_cast<long long>(kTemperD));
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(kTemperB));
  const __m256i c = _mm256_set1_epi64x(static_cast<long long>(kTemperC));
  for (std::size_t k = 0; k < kN; k += 4) {
    const auto* far_ptr = x + (k < kM ? k + kM : k - kM);
    const __m256i cur = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k));
    const __m256i next = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k + 1));
    const __m256i far = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(far_ptr));
    const __m256i y = _mm256_or_si256(_mm256_and_si256(cur, upper),
                                      _mm256_and_si256(next, lower));
    const __m256i mag =
        _mm256_and_si256(_mm256_sub_epi64(zero, _mm256_and_si256(y, one)), matrix_a);
    const __m256i v = _mm256_xor_si256(far, _mm256_xor_si256(_mm256_srli_epi64(y, 1), mag));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k), v);
    if (k == 0) _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + kN), v);
    __m256i t = v;
    t = _mm256_xor_si256(t, _mm256_and_si256(_mm256_srli_epi64(t, 29), d));
    t = _mm256_xor_si256(t, _mm256_and_si256(_mm256_slli_epi64(t, 17), b));
    t = _mm256_xor_si256(t, _mm256_and_si256(_mm256_slli_epi64(t, 37), c));
    t = _mm256_xor_si256(t, _mm256_srli_epi64(t, 43));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), t);
  }
}
#endif

}  // namespace

Mt19937_64::Mt19937_64(result_type seed, SimdKernel kernel)
    : kernel_(simd_kernel_supported(kernel) ? kernel : SimdKernel::Scalar) {
  x_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }
}

void Mt19937_64::refill() noexcept {
#if TCGRID_SIMD_X86
  if (kernel_ == SimdKernel::Avx2) {
    twist_avx2(x_.data(), out_.data());
  } else {
    twist_scalar(x_.data(), out_.data());
  }
#else
  twist_scalar(x_.data(), out_.data());
#endif
  pos_ = 0;
}

void Mt19937_64::fill(result_type* dst, std::size_t n) noexcept {
  while (n > 0) {
    if (pos_ == kN) refill();
    const std::size_t m = std::min(n, kN - pos_);
    std::memcpy(dst, out_.data() + pos_, m * sizeof(result_type));
    pos_ += m;
    dst += m;
    n -= m;
  }
}

}  // namespace tcgrid::util
