// Portable scalar reference backend.
//
// This file is the arithmetic contract: every vector backend must produce
// bit-identical amplitudes to these loops. The complex operation order
// mirrors std::complex exactly —
//   a * b = (a.re*b.re - a.im*b.im,  a.re*b.im + a.im*b.re)
// with the left operand's components first — and the whole file is compiled
// with -ffp-contract=off so no multiply-add contraction can change rounding
// (see src/sv/CMakeLists.txt; the vector backends use no FMA either).
//
// Uncontrolled matrix1 loops are written as (block, offset) nests over the
// pair stride so the compiler can auto-vectorise the contiguous inner loop
// even in this backend. The readout (sv/simd/diag_sums.hpp) is the one
// vector-extension kernel every backend shares, at its own width.
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sv/simd/backends.hpp"
#include "sv/simd/diag_sums.hpp"

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

void matrix2_soa(const SoaSpan& s, int a, int b, const Mat4& u,
                 amp_index ctrl) {
  real_t* const re = s.re;
  real_t* const im = s.im;
  const int lo = a < b ? a : b;
  const int hi = a < b ? b : a;
  const int64_t quads = static_cast<int64_t>(s.n) / 4;
  parallel_for(s.n, quads, [=](int64_t k) {
    const amp_index base =
        bits::insert_two_zero_bits(static_cast<amp_index>(k), lo, hi);
    if (!bits::all_set(base, ctrl)) {
      return;
    }
    // Subspace index order follows (bit b, bit a).
    amp_index idx[4];
    for (int sub = 0; sub < 4; ++sub) {
      amp_index i = base;
      if (sub & 1) {
        i = bits::set_bit(i, a);
      }
      if (sub & 2) {
        i = bits::set_bit(i, b);
      }
      idx[sub] = i;
    }
    real_t inr[4], ini[4];
    for (int sub = 0; sub < 4; ++sub) {
      inr[sub] = re[idx[sub]];
      ini[sub] = im[idx[sub]];
    }
    for (int row = 0; row < 4; ++row) {
      real_t accr = 0, acci = 0;
      for (int col = 0; col < 4; ++col) {
        const real_t ur = u.m[row][col].real();
        const real_t ui = u.m[row][col].imag();
        accr = accr + (ur * inr[col] - ui * ini[col]);
        acci = acci + (ur * ini[col] + ui * inr[col]);
      }
      re[idx[row]] = accr;
      im[idx[row]] = acci;
    }
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

// The readout's chain pairs are SSE2 registers on baseline x86-64, and
// pairs of scalars on a target without vectors.
constexpr KernelOps kScalarOps = {
    "scalar", matrix1_soa, matrix2_soa, swap_soa, phase_soa, rz_soa,
    diag_sums<2>,
};

}  // namespace

const KernelOps& scalar_ops() { return kScalarOps; }

}  // namespace qsv::simd
