// Internal: per-backend kernel-table getters, linked by dispatch.cpp.
// Availability macros (QSV_SIMD_HAVE_*) are defined by src/sv/CMakeLists.txt
// for backends whose ISA flags the compiler accepted on this architecture.
#pragma once

#include "sv/simd/simd.hpp"

namespace qsv::simd {

const KernelOps& scalar_ops();
#if QSV_SIMD_HAVE_SCALAR_FMA
/// The scalar matrix2 entry's -mfma build (kernels_scalar_fma.cpp).
void scalar_matrix2_fma(const SoaSpan& s, int a, int b, const Mat4& u,
                        amp_index ctrl);
#endif
#if QSV_SIMD_HAVE_AVX2
const KernelOps& avx2_ops();
#endif
#if QSV_SIMD_HAVE_AVX512
const KernelOps& avx512_ops();
#endif

/// True if the host CPU executes FMA3 instructions (and the AVX encoding
/// they need).
[[nodiscard]] bool cpu_has_fma();

}  // namespace qsv::simd
