// The scalar table's matrix2 entry built with -mfma -ffp-contract=off: the
// loop of sv/simd/matrix2_chain.hpp, whose std::fma calls compile to FMA
// instructions here instead of the baseline build's libm calls. Both round
// each multiply-add once, so they give the same bits; scalar_ops() takes
// this build when CPUID reports fma. As in the vector backends, everything
// but the one exported function is file-local, so no FMA-encoded symbol can
// become the copy a baseline translation unit links.
#include <cmath>

#include "sv/simd/backends.hpp"
#include "sv/simd/matrix2_chain.hpp"

namespace qsv::simd {

void scalar_matrix2_fma(const SoaSpan& s, int a, int b, const Mat4& u,
                        amp_index ctrl) {
  matrix2_chain(s, a, b, u, ctrl, [](real_t x, real_t y, real_t z) {
    return std::fma(x, y, z);
  });
}

}  // namespace qsv::simd
