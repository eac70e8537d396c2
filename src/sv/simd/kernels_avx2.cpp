// AVX2 backend: 256-bit split re/im lanes over the SoA layout.
//
// Compiled with -mavx2 -ffp-contract=off (no FMA: the bit-identity contract
// requires the scalar backend's separate multiply/add rounding). Only the
// kernel-table getter is exported; everything else is file-local so no
// AVX2-compiled symbol can leak into translation units built for the
// baseline ISA.
//
// Vector main paths mirror the scalar reference operation-for-operation per
// lane, so the amplitudes they produce are bit-identical to the scalar
// backend's. Pair groups are loaded as whole vectors: for target bit t >= 2
// the four pair members are contiguous at stride 2^t; for t = 0 and t = 1
// the pairs interleave inside a 8-amplitude group and are separated with
// unpack / 128-bit-permute shuffles (a pure relabelling — per-lane
// arithmetic is unaffected, and pairs are independent, so processing order
// does not matter).
//
// Anything without a vector path here (control masks on dense kernels, tiny
// spans, low swap/matrix2 strides) forwards to the scalar backend's entry.
// The readout keeps 4 chains per register (sv/simd/diag_sums.hpp).
#include <immintrin.h>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "sv/simd/backends.hpp"
#include "sv/simd/diag_sums.hpp"

namespace qsv::simd {
namespace {

using std::int64_t;
using v4d = __m256d;

// Broadcast components of a 2x2 complex matrix.
struct BMat2 {
  v4d r00, i00, r01, i01, r10, i10, r11, i11;
};

BMat2 broadcast2(const Mat2& u) {
  return {_mm256_set1_pd(u.m[0][0].real()), _mm256_set1_pd(u.m[0][0].imag()),
          _mm256_set1_pd(u.m[0][1].real()), _mm256_set1_pd(u.m[0][1].imag()),
          _mm256_set1_pd(u.m[1][0].real()), _mm256_set1_pd(u.m[1][0].imag()),
          _mm256_set1_pd(u.m[1][1].real()), _mm256_set1_pd(u.m[1][1].imag())};
}

/// new0/new1 from (a0, a1) in split lanes, mirroring the scalar order:
/// n0r = (u00r*a0r - u00i*a0i) + (u01r*a1r - u01i*a1i), etc.
inline void mat2_lanes(const BMat2& u, v4d a0r, v4d a0i, v4d a1r, v4d a1i,
                       v4d& n0r, v4d& n0i, v4d& n1r, v4d& n1i) {
  n0r = _mm256_add_pd(
      _mm256_sub_pd(_mm256_mul_pd(u.r00, a0r), _mm256_mul_pd(u.i00, a0i)),
      _mm256_sub_pd(_mm256_mul_pd(u.r01, a1r), _mm256_mul_pd(u.i01, a1i)));
  n0i = _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(u.r00, a0i), _mm256_mul_pd(u.i00, a0r)),
      _mm256_add_pd(_mm256_mul_pd(u.r01, a1i), _mm256_mul_pd(u.i01, a1r)));
  n1r = _mm256_add_pd(
      _mm256_sub_pd(_mm256_mul_pd(u.r10, a0r), _mm256_mul_pd(u.i10, a0i)),
      _mm256_sub_pd(_mm256_mul_pd(u.r11, a1r), _mm256_mul_pd(u.i11, a1i)));
  n1i = _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(u.r10, a0i), _mm256_mul_pd(u.i10, a0r)),
      _mm256_add_pd(_mm256_mul_pd(u.r11, a1i), _mm256_mul_pd(u.i11, a1r)));
}

/// Lane-selection mask for the low two index bits: lane l (amplitude index
/// base + l, base a multiple of 4) is selected when (l & lo2) == lo2.
v4d low2_lane_mask(amp_index lo2) {
  const auto lane = [lo2](long long l) -> long long {
    return (static_cast<amp_index>(l) & lo2) == lo2 ? -1 : 0;
  };
  return _mm256_castsi256_pd(
      _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0)));
}

void matrix1_soa(const SoaSpan& s, int target, const Mat2& u,
                 amp_index ctrl) {
  if (ctrl != 0 || s.n < 8) {
    scalar_ops().matrix1_soa(s, target, u, ctrl);
    return;
  }
  real_t* const re = s.re;
  real_t* const im = s.im;
  const BMat2 b = broadcast2(u);

  if (target >= 2) {
    const int64_t stride = int64_t{1} << target;
    const int64_t blocks = static_cast<int64_t>(s.n) / (2 * stride);
    parallel_for(s.n, blocks, stride / 4, [=](int64_t blk, int64_t vec) {
      const int64_t i0 = blk * 2 * stride + 4 * vec;
      const int64_t i1 = i0 + stride;
      const v4d a0r = _mm256_loadu_pd(re + i0);
      const v4d a0i = _mm256_loadu_pd(im + i0);
      const v4d a1r = _mm256_loadu_pd(re + i1);
      const v4d a1i = _mm256_loadu_pd(im + i1);
      v4d n0r, n0i, n1r, n1i;
      mat2_lanes(b, a0r, a0i, a1r, a1i, n0r, n0i, n1r, n1i);
      _mm256_storeu_pd(re + i0, n0r);
      _mm256_storeu_pd(im + i0, n0i);
      _mm256_storeu_pd(re + i1, n1r);
      _mm256_storeu_pd(im + i1, n1i);
    });
    return;
  }

  // target 0 or 1: pairs interleave inside each 8-amplitude group. Split
  // them with shuffles, compute, and shuffle back (self-inverse patterns).
  const bool adjacent = target == 0;
  parallel_for(s.n, static_cast<int64_t>(s.n) / 8, [=](int64_t group) {
    const int64_t base = 8 * group;
    const v4d Ar = _mm256_loadu_pd(re + base);
    const v4d Br = _mm256_loadu_pd(re + base + 4);
    const v4d Ai = _mm256_loadu_pd(im + base);
    const v4d Bi = _mm256_loadu_pd(im + base + 4);
    v4d a0r, a1r, a0i, a1i;
    if (adjacent) {  // target 0: even/odd split
      a0r = _mm256_unpacklo_pd(Ar, Br);
      a1r = _mm256_unpackhi_pd(Ar, Br);
      a0i = _mm256_unpacklo_pd(Ai, Bi);
      a1i = _mm256_unpackhi_pd(Ai, Bi);
    } else {  // target 1: 128-bit halves alternate
      a0r = _mm256_permute2f128_pd(Ar, Br, 0x20);
      a1r = _mm256_permute2f128_pd(Ar, Br, 0x31);
      a0i = _mm256_permute2f128_pd(Ai, Bi, 0x20);
      a1i = _mm256_permute2f128_pd(Ai, Bi, 0x31);
    }
    v4d n0r, n0i, n1r, n1i;
    mat2_lanes(b, a0r, a0i, a1r, a1i, n0r, n0i, n1r, n1i);
    v4d Cr, Dr, Ci, Di;
    if (adjacent) {
      Cr = _mm256_unpacklo_pd(n0r, n1r);
      Dr = _mm256_unpackhi_pd(n0r, n1r);
      Ci = _mm256_unpacklo_pd(n0i, n1i);
      Di = _mm256_unpackhi_pd(n0i, n1i);
    } else {
      Cr = _mm256_permute2f128_pd(n0r, n1r, 0x20);
      Dr = _mm256_permute2f128_pd(n0r, n1r, 0x31);
      Ci = _mm256_permute2f128_pd(n0i, n1i, 0x20);
      Di = _mm256_permute2f128_pd(n0i, n1i, 0x31);
    }
    _mm256_storeu_pd(re + base, Cr);
    _mm256_storeu_pd(re + base + 4, Dr);
    _mm256_storeu_pd(im + base, Ci);
    _mm256_storeu_pd(im + base + 4, Di);
  });
}

void matrix2_soa(const SoaSpan& s, int a, int b, const Mat4& u,
                 amp_index ctrl) {
  const int lo = a < b ? a : b;
  if (ctrl != 0 || lo < 2 || s.n < 16) {
    scalar_ops().matrix2_soa(s, a, b, u, ctrl);
    return;
  }
  real_t* const re = s.re;
  real_t* const im = s.im;
  const int hi = a < b ? b : a;
  const int64_t sa = int64_t{1} << a;
  const int64_t sb = int64_t{1} << b;
  v4d ur[4][4], ui[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      ur[r][c] = _mm256_set1_pd(u.m[r][c].real());
      ui[r][c] = _mm256_set1_pd(u.m[r][c].imag());
    }
  }
  const int64_t quads = static_cast<int64_t>(s.n) / 4;
  parallel_for(s.n, quads / 4, [=](int64_t group) {
    // lo >= 2: the 4 consecutive quad counters share one contiguous base.
    const int64_t base = static_cast<int64_t>(
        bits::insert_two_zero_bits(static_cast<amp_index>(4 * group), lo, hi));
    int64_t idx[4];
    v4d inr[4], ini[4];
    for (int sub = 0; sub < 4; ++sub) {
      idx[sub] = base + ((sub & 1) ? sa : 0) + ((sub & 2) ? sb : 0);
      inr[sub] = _mm256_loadu_pd(re + idx[sub]);
      ini[sub] = _mm256_loadu_pd(im + idx[sub]);
    }
    for (int row = 0; row < 4; ++row) {
      v4d accr = _mm256_setzero_pd();
      v4d acci = _mm256_setzero_pd();
      for (int col = 0; col < 4; ++col) {
        accr = _mm256_add_pd(
            accr, _mm256_sub_pd(_mm256_mul_pd(ur[row][col], inr[col]),
                                _mm256_mul_pd(ui[row][col], ini[col])));
        acci = _mm256_add_pd(
            acci, _mm256_add_pd(_mm256_mul_pd(ur[row][col], ini[col]),
                                _mm256_mul_pd(ui[row][col], inr[col])));
      }
      _mm256_storeu_pd(re + idx[row], accr);
      _mm256_storeu_pd(im + idx[row], acci);
    }
  });
}

void swap_soa(const SoaSpan& s, int a, int b) {
  const int lo = a < b ? a : b;
  if (lo < 2 || s.n < 16) {
    scalar_ops().swap_soa(s, a, b);
    return;
  }
  real_t* const re = s.re;
  real_t* const im = s.im;
  const int hi = a < b ? b : a;
  const int64_t quads = static_cast<int64_t>(s.n) / 4;
  parallel_for(s.n, quads / 4, [=](int64_t group) {
    amp_index i =
        bits::insert_two_zero_bits(static_cast<amp_index>(4 * group), lo, hi);
    i = bits::set_bit(i, lo);
    const amp_index j = bits::set_bit(bits::clear_bit(i, lo), hi);
    const v4d xr = _mm256_loadu_pd(re + i);
    const v4d xi = _mm256_loadu_pd(im + i);
    const v4d yr = _mm256_loadu_pd(re + j);
    const v4d yi = _mm256_loadu_pd(im + j);
    _mm256_storeu_pd(re + i, yr);
    _mm256_storeu_pd(im + i, yi);
    _mm256_storeu_pd(re + j, xr);
    _mm256_storeu_pd(im + j, xi);
  });
}

void phase_soa(const SoaSpan& s, amp_index mask, cplx factor) {
  if (s.n < 4) {
    scalar_ops().phase_soa(s, mask, factor);
    return;
  }
  real_t* const re = s.re;
  real_t* const im = s.im;
  // Lanes always carry index low bits 0..3, so the low-mask selection is one
  // constant blend mask; the high part of the mask is uniform per vector.
  const v4d lane = low2_lane_mask(mask & 3);
  const amp_index mask_hi = mask & ~amp_index{3};
  const v4d fr = _mm256_set1_pd(factor.real());
  const v4d fi = _mm256_set1_pd(factor.imag());
  parallel_for(s.n, static_cast<int64_t>(s.n) / 4, [=](int64_t vec) {
    const int64_t base = 4 * vec;
    if (!bits::all_set(static_cast<amp_index>(base), mask_hi)) {
      return;
    }
    const v4d vr = _mm256_loadu_pd(re + base);
    const v4d vi = _mm256_loadu_pd(im + base);
    const v4d nr =
        _mm256_sub_pd(_mm256_mul_pd(vr, fr), _mm256_mul_pd(vi, fi));
    const v4d ni =
        _mm256_add_pd(_mm256_mul_pd(vr, fi), _mm256_mul_pd(vi, fr));
    _mm256_storeu_pd(re + base, _mm256_blendv_pd(vr, nr, lane));
    _mm256_storeu_pd(im + base, _mm256_blendv_pd(vi, ni, lane));
  });
}

void rz_soa(const SoaSpan& s, int target, cplx f0, cplx f1, amp_index ctrl) {
  if (s.n < 4) {
    scalar_ops().rz_soa(s, target, f0, f1, ctrl);
    return;
  }
  real_t* const re = s.re;
  real_t* const im = s.im;
  const v4d ctrl_lane = low2_lane_mask(ctrl & 3);
  const amp_index ctrl_hi = ctrl & ~amp_index{3};
  const v4d f0r = _mm256_set1_pd(f0.real()), f0i = _mm256_set1_pd(f0.imag());
  const v4d f1r = _mm256_set1_pd(f1.real()), f1i = _mm256_set1_pd(f1.imag());

  // Which lanes/vectors see f1: below bit 2 it is a fixed lane pattern,
  // otherwise it is uniform across the vector and chosen per iteration.
  v4d frv_fixed = f0r, fiv_fixed = f0i;
  const bool lane_target = target < 2;
  if (lane_target) {
    const auto sel = [target](long long l) -> long long {
      return ((l >> target) & 1) ? -1 : 0;
    };
    const v4d tmask = _mm256_castsi256_pd(
        _mm256_set_epi64x(sel(3), sel(2), sel(1), sel(0)));
    frv_fixed = _mm256_blendv_pd(f0r, f1r, tmask);
    fiv_fixed = _mm256_blendv_pd(f0i, f1i, tmask);
  }
  parallel_for(s.n, static_cast<int64_t>(s.n) / 4, [=](int64_t vec) {
    const int64_t base = 4 * vec;
    if (!bits::all_set(static_cast<amp_index>(base), ctrl_hi)) {
      return;
    }
    v4d frv = frv_fixed, fiv = fiv_fixed;
    if (!lane_target) {
      const bool one =
          bits::bit(static_cast<amp_index>(base), target) != 0;
      frv = one ? f1r : f0r;
      fiv = one ? f1i : f0i;
    }
    const v4d vr = _mm256_loadu_pd(re + base);
    const v4d vi = _mm256_loadu_pd(im + base);
    const v4d nr =
        _mm256_sub_pd(_mm256_mul_pd(vr, frv), _mm256_mul_pd(vi, fiv));
    const v4d ni =
        _mm256_add_pd(_mm256_mul_pd(vr, fiv), _mm256_mul_pd(vi, frv));
    _mm256_storeu_pd(re + base, _mm256_blendv_pd(vr, nr, ctrl_lane));
    _mm256_storeu_pd(im + base, _mm256_blendv_pd(vi, ni, ctrl_lane));
  });
}

constexpr KernelOps kAvx2Ops = {
    "avx2", matrix1_soa, matrix2_soa, swap_soa, phase_soa, rz_soa,
    diag_sums<4>,
};

}  // namespace

const KernelOps& avx2_ops() { return kAvx2Ops; }

}  // namespace qsv::simd
