#include "util/simd.hpp"

namespace tcgrid::util {

bool simd_kernel_supported(SimdKernel k) noexcept {
  if (k == SimdKernel::Scalar) return true;
#if TCGRID_SIMD_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdKernel simd_kernel() noexcept {
  static const SimdKernel kernel =
      simd_kernel_supported(SimdKernel::Avx2) ? SimdKernel::Avx2 : SimdKernel::Scalar;
  return kernel;
}

}  // namespace tcgrid::util
