// Portable scalar reference backend.
//
// This file is the arithmetic contract: every vector backend must produce
// bit-identical amplitudes to these loops. The complex operation order
// mirrors std::complex exactly —
//   a * b = (a.re*b.re - a.im*b.im,  a.re*b.im + a.im*b.re)
// with the left operand's components first — and the whole file is compiled
// with -ffp-contract=off so the compiler cannot contract a multiply and an
// add into one rounding (see src/sv/CMakeLists.txt).
//
// The one fused kernel is matrix2: each output is one chain of std::fma
// calls (sv/simd/matrix2_chain.hpp), which every backend computes bit for
// bit. Its loop has two builds, this file's and kernels_scalar_fma.cpp's
// -mfma one, and scalar_ops() takes the second when the CPU has FMA.
//
// Uncontrolled matrix1 loops are written as (block, offset) nests over the
// pair stride so the compiler can auto-vectorise the contiguous inner loop
// even in this backend. The readout (sv/simd/diag_sums.hpp) is the one
// vector-extension kernel every backend shares, at its own width.
#include <cmath>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sv/simd/backends.hpp"
#include "sv/simd/diag_sums.hpp"
#include "sv/simd/matrix2_chain.hpp"

namespace qsv::simd {
namespace {

using std::int64_t;

void matrix1_soa(const SoaSpan& s, int target, const Mat2& u,
                 amp_index ctrl) {
  real_t* const re = s.re;
  real_t* const im = s.im;
  const real_t u00r = u.m[0][0].real(), u00i = u.m[0][0].imag();
  const real_t u01r = u.m[0][1].real(), u01i = u.m[0][1].imag();
  const real_t u10r = u.m[1][0].real(), u10i = u.m[1][0].imag();
  const real_t u11r = u.m[1][1].real(), u11i = u.m[1][1].imag();
  const int64_t stride = int64_t{1} << target;

  if (ctrl == 0) {
    const int64_t blocks = static_cast<int64_t>(s.n) / (2 * stride);
    parallel_for(s.n, blocks, stride, [=](int64_t blk, int64_t off) {
      const int64_t i0 = blk * 2 * stride + off;
      const int64_t i1 = i0 + stride;
      const real_t a0r = re[i0], a0i = im[i0];
      const real_t a1r = re[i1], a1i = im[i1];
      re[i0] = (u00r * a0r - u00i * a0i) + (u01r * a1r - u01i * a1i);
      im[i0] = (u00r * a0i + u00i * a0r) + (u01r * a1i + u01i * a1r);
      re[i1] = (u10r * a0r - u10i * a0i) + (u11r * a1r - u11i * a1i);
      im[i1] = (u10r * a0i + u10i * a0r) + (u11r * a1i + u11i * a1r);
    });
    return;
  }

  const int64_t pairs = static_cast<int64_t>(s.n) / 2;
  parallel_for(s.n, pairs, [=](int64_t k) {
    const amp_index i0 =
        bits::insert_zero_bit(static_cast<amp_index>(k), target);
    if (!bits::all_set(i0, ctrl)) {
      return;
    }
    const amp_index i1 = bits::set_bit(i0, target);
    const real_t a0r = re[i0], a0i = im[i0];
    const real_t a1r = re[i1], a1i = im[i1];
    re[i0] = (u00r * a0r - u00i * a0i) + (u01r * a1r - u01i * a1i);
    im[i0] = (u00r * a0i + u00i * a0r) + (u01r * a1i + u01i * a1r);
    re[i1] = (u10r * a0r - u10i * a0i) + (u11r * a1r - u11i * a1i);
    im[i1] = (u10r * a0i + u10i * a0r) + (u11r * a1i + u11i * a1r);
  });
}

// The baseline build of the matrix2 chain: std::fma is a libm call here,
// correctly rounded like the FMA instruction. scalar_ops() takes the -mfma
// build (kernels_scalar_fma.cpp) instead when the CPU has FMA.
void matrix2_soa(const SoaSpan& s, int a, int b, const Mat4& u,
                 amp_index ctrl) {
  matrix2_chain(s, a, b, u, ctrl, [](real_t x, real_t y, real_t z) {
    return std::fma(x, y, z);
  });
}

void swap_soa(const SoaSpan& s, int a, int b) {
  real_t* const re = s.re;
  real_t* const im = s.im;
  const int lo = a < b ? a : b;
  const int hi = a < b ? b : a;
  const int64_t quads = static_cast<int64_t>(s.n) / 4;
  parallel_for(s.n, quads, [=](int64_t k) {
    amp_index i =
        bits::insert_two_zero_bits(static_cast<amp_index>(k), lo, hi);
    i = bits::set_bit(i, lo);
    const amp_index j = bits::set_bit(bits::clear_bit(i, lo), hi);
    const real_t tr = re[i], ti = im[i];
    re[i] = re[j];
    im[i] = im[j];
    re[j] = tr;
    im[j] = ti;
  });
}

void phase_soa(const SoaSpan& s, amp_index mask, cplx factor) {
  real_t* const re = s.re;
  real_t* const im = s.im;
  const real_t fr = factor.real(), fi = factor.imag();
  parallel_for(s.n, static_cast<int64_t>(s.n), [=](int64_t i) {
    if (bits::all_set(static_cast<amp_index>(i), mask)) {
      const real_t vr = re[i], vi = im[i];
      re[i] = vr * fr - vi * fi;
      im[i] = vr * fi + vi * fr;
    }
  });
}

void rz_soa(const SoaSpan& s, int target, cplx f0, cplx f1, amp_index ctrl) {
  real_t* const re = s.re;
  real_t* const im = s.im;
  const real_t f0r = f0.real(), f0i = f0.imag();
  const real_t f1r = f1.real(), f1i = f1.imag();
  parallel_for(s.n, static_cast<int64_t>(s.n), [=](int64_t i) {
    if (!bits::all_set(static_cast<amp_index>(i), ctrl)) {
      return;
    }
    const bool one = bits::bit(static_cast<amp_index>(i), target) != 0;
    const real_t fr = one ? f1r : f0r;
    const real_t fi = one ? f1i : f0i;
    const real_t vr = re[i], vi = im[i];
    re[i] = vr * fr - vi * fi;
    im[i] = vr * fi + vi * fr;
  });
}

}  // namespace

std::vector<Matrix2Build> scalar_matrix2_builds() {
  std::vector<Matrix2Build> builds = {{"baseline", matrix2_soa}};
#if QSV_SIMD_HAVE_SCALAR_FMA
  if (cpu_has_fma()) {
    builds.push_back({"fma", scalar_matrix2_fma});
  }
#endif
  return builds;
}

// The readout's chain pairs are SSE2 registers on baseline x86-64, and
// pairs of scalars on a target without vectors. The matrix2 build is
// resolved once, on first use, like the active table.
const KernelOps& scalar_ops() {
  static const KernelOps ops = {
      "scalar", matrix1_soa, scalar_matrix2_builds().back().fn,
      swap_soa, phase_soa,   rz_soa,
      diag_sums<2>,
  };
  return ops;
}

}  // namespace qsv::simd
