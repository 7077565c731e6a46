// Runtime choice of the SIMD width for the bulk random-number and
// availability-stepping kernels.
//
// Each kernel exists twice: AVX2 and a portable scalar loop. The AVX2
// version is compiled with a per-function target attribute, so the library
// needs no -m flag and runs on any x86-64 (or non-x86) CPU; the kernel is
// chosen once, at first use, via __builtin_cpu_supports. Both produce
// bit-identical output — the scalar loop is the reference the tests compare
// against. (An AVX-512 variant measured no end-to-end gain over AVX2 and was
// dropped; DESIGN.md §7.)
#pragma once

#include <string_view>

namespace tcgrid::util {

enum class SimdKernel { Scalar, Avx2 };

inline constexpr SimdKernel kAllSimdKernels[] = {SimdKernel::Scalar, SimdKernel::Avx2};

/// True when `k` is compiled in and the host CPU can run it. Scalar always is.
[[nodiscard]] bool simd_kernel_supported(SimdKernel k) noexcept;

/// AVX2 when the host supports it, else scalar; fixed for the process lifetime.
[[nodiscard]] SimdKernel simd_kernel() noexcept;

/// "scalar" or "avx2" — the label the metrics scrape and the bench
/// artifacts record.
[[nodiscard]] constexpr std::string_view to_string(SimdKernel k) noexcept {
  switch (k) {
    case SimdKernel::Avx2: return "avx2";
    case SimdKernel::Scalar: break;
  }
  return "scalar";
}

}  // namespace tcgrid::util

// Vector kernels are compiled only where the target attributes and
// intrinsics exist; elsewhere every SimdKernel runs the scalar loop.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TCGRID_SIMD_X86 1
#define TCGRID_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define TCGRID_SIMD_X86 0
#endif
