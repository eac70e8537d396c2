// AVX-512 backend: 512-bit split re/im lanes for the kernels that dominate
// dense local layers (matrix1, phase, rz). The rarer dense kernels
// (matrix2, swap) compose the AVX2 table's entries — a worked example of
// the partial-backend composition rule in docs/KERNELS.md.
//
// Compiled with -mavx512f -ffp-contract=off; no FMA (bit-identity contract,
// see kernels_scalar.cpp). Only the table getter is exported.
#include <immintrin.h>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "sv/simd/backends.hpp"

namespace qsv::simd {
namespace {

using std::int64_t;
using v8d = __m512d;

struct BMat2 {
  v8d r00, i00, r01, i01, r10, i10, r11, i11;
};

BMat2 broadcast2(const Mat2& u) {
  return {_mm512_set1_pd(u.m[0][0].real()), _mm512_set1_pd(u.m[0][0].imag()),
          _mm512_set1_pd(u.m[0][1].real()), _mm512_set1_pd(u.m[0][1].imag()),
          _mm512_set1_pd(u.m[1][0].real()), _mm512_set1_pd(u.m[1][0].imag()),
          _mm512_set1_pd(u.m[1][1].real()), _mm512_set1_pd(u.m[1][1].imag())};
}

inline void mat2_lanes(const BMat2& u, v8d a0r, v8d a0i, v8d a1r, v8d a1i,
                       v8d& n0r, v8d& n0i, v8d& n1r, v8d& n1i) {
  n0r = _mm512_add_pd(
      _mm512_sub_pd(_mm512_mul_pd(u.r00, a0r), _mm512_mul_pd(u.i00, a0i)),
      _mm512_sub_pd(_mm512_mul_pd(u.r01, a1r), _mm512_mul_pd(u.i01, a1i)));
  n0i = _mm512_add_pd(
      _mm512_add_pd(_mm512_mul_pd(u.r00, a0i), _mm512_mul_pd(u.i00, a0r)),
      _mm512_add_pd(_mm512_mul_pd(u.r01, a1i), _mm512_mul_pd(u.i01, a1r)));
  n1r = _mm512_add_pd(
      _mm512_sub_pd(_mm512_mul_pd(u.r10, a0r), _mm512_mul_pd(u.i10, a0i)),
      _mm512_sub_pd(_mm512_mul_pd(u.r11, a1r), _mm512_mul_pd(u.i11, a1i)));
  n1i = _mm512_add_pd(
      _mm512_add_pd(_mm512_mul_pd(u.r10, a0i), _mm512_mul_pd(u.i10, a0r)),
      _mm512_add_pd(_mm512_mul_pd(u.r11, a1i), _mm512_mul_pd(u.i11, a1r)));
}

/// permutex2var index tables splitting a 16-amplitude group (vectors A, B)
/// into the pair halves for target bits 0..2, and merging them back.
/// fwd0/fwd1 gather the target=0 / target=1 halves; inv_lo/inv_hi scatter
/// (n0, n1) back into the A and B slots.
struct PairShuffle {
  __m512i fwd0, fwd1, inv_lo, inv_hi;
};

PairShuffle pair_shuffle(int target) {
  alignas(64) long long f0[8], f1[8], lo[8], hi[8];
  const long long stride = 1LL << target;
  for (long long k = 0; k < 8; ++k) {
    // Pair counter k within the group: member 0 at insert_zero(k, target),
    // member 1 one stride above. Values 0..7 select from A, 8..15 from B.
    const long long i0 =
        ((k & ~(stride - 1)) << 1) | (k & (stride - 1));
    f0[k] = i0;
    f1[k] = i0 + stride;
  }
  for (long long k = 0; k < 8; ++k) {
    // Amplitude slot f0[k] receives n0 lane k; slot f1[k] receives n1
    // lane k (n1 lanes are indices 8..15 of the (n0, n1) pair).
    long long* const dst = f0[k] < 8 ? lo : hi;
    dst[f0[k] & 7] = k;
    long long* const dst1 = f1[k] < 8 ? lo : hi;
    dst1[f1[k] & 7] = k + 8;
  }
  return {_mm512_load_si512(f0), _mm512_load_si512(f1),
          _mm512_load_si512(lo), _mm512_load_si512(hi)};
}

/// __mmask8 selecting lanes l (index base + l, base a multiple of 8) with
/// (l & lo3) == lo3.
__mmask8 low3_lane_mask(amp_index lo3) {
  __mmask8 m = 0;
  for (amp_index l = 0; l < 8; ++l) {
    if ((l & lo3) == lo3) {
      m = static_cast<__mmask8>(m | (1u << l));
    }
  }
  return m;
}

void matrix1_soa(const SoaSpan& s, int target, const Mat2& u,
                 amp_index ctrl) {
  if (ctrl != 0 || s.n < 16) {
    scalar_ops().matrix1_soa(s, target, u, ctrl);
    return;
  }
  real_t* const re = s.re;
  real_t* const im = s.im;
  const BMat2 b = broadcast2(u);

  if (target >= 3) {
    const int64_t stride = int64_t{1} << target;
    const int64_t blocks = static_cast<int64_t>(s.n) / (2 * stride);
    parallel_for(s.n, blocks, stride / 8, [=](int64_t blk, int64_t vec) {
      const int64_t i0 = blk * 2 * stride + 8 * vec;
      const int64_t i1 = i0 + stride;
      const v8d a0r = _mm512_loadu_pd(re + i0);
      const v8d a0i = _mm512_loadu_pd(im + i0);
      const v8d a1r = _mm512_loadu_pd(re + i1);
      const v8d a1i = _mm512_loadu_pd(im + i1);
      v8d n0r, n0i, n1r, n1i;
      mat2_lanes(b, a0r, a0i, a1r, a1i, n0r, n0i, n1r, n1i);
      _mm512_storeu_pd(re + i0, n0r);
      _mm512_storeu_pd(im + i0, n0i);
      _mm512_storeu_pd(re + i1, n1r);
      _mm512_storeu_pd(im + i1, n1i);
    });
    return;
  }

  // target 0..2: split each 16-amplitude group into pair halves with
  // permutex2var (pairs are independent; relabelling lanes is free).
  const PairShuffle sh = pair_shuffle(target);
  parallel_for(s.n, static_cast<int64_t>(s.n) / 16, [=](int64_t group) {
    const int64_t base = 16 * group;
    const v8d Ar = _mm512_loadu_pd(re + base);
    const v8d Br = _mm512_loadu_pd(re + base + 8);
    const v8d Ai = _mm512_loadu_pd(im + base);
    const v8d Bi = _mm512_loadu_pd(im + base + 8);
    const v8d a0r = _mm512_permutex2var_pd(Ar, sh.fwd0, Br);
    const v8d a1r = _mm512_permutex2var_pd(Ar, sh.fwd1, Br);
    const v8d a0i = _mm512_permutex2var_pd(Ai, sh.fwd0, Bi);
    const v8d a1i = _mm512_permutex2var_pd(Ai, sh.fwd1, Bi);
    v8d n0r, n0i, n1r, n1i;
    mat2_lanes(b, a0r, a0i, a1r, a1i, n0r, n0i, n1r, n1i);
    _mm512_storeu_pd(re + base, _mm512_permutex2var_pd(n0r, sh.inv_lo, n1r));
    _mm512_storeu_pd(re + base + 8,
                     _mm512_permutex2var_pd(n0r, sh.inv_hi, n1r));
    _mm512_storeu_pd(im + base, _mm512_permutex2var_pd(n0i, sh.inv_lo, n1i));
    _mm512_storeu_pd(im + base + 8,
                     _mm512_permutex2var_pd(n0i, sh.inv_hi, n1i));
  });
}

void phase_soa(const SoaSpan& s, amp_index mask, cplx factor) {
  if (s.n < 8) {
    scalar_ops().phase_soa(s, mask, factor);
    return;
  }
  real_t* const re = s.re;
  real_t* const im = s.im;
  const __mmask8 lane = low3_lane_mask(mask & 7);
  const amp_index mask_hi = mask & ~amp_index{7};
  const v8d fr = _mm512_set1_pd(factor.real());
  const v8d fi = _mm512_set1_pd(factor.imag());
  parallel_for(s.n, static_cast<int64_t>(s.n) / 8, [=](int64_t vec) {
    const int64_t base = 8 * vec;
    if (!bits::all_set(static_cast<amp_index>(base), mask_hi)) {
      return;
    }
    const v8d vr = _mm512_loadu_pd(re + base);
    const v8d vi = _mm512_loadu_pd(im + base);
    const v8d nr =
        _mm512_sub_pd(_mm512_mul_pd(vr, fr), _mm512_mul_pd(vi, fi));
    const v8d ni =
        _mm512_add_pd(_mm512_mul_pd(vr, fi), _mm512_mul_pd(vi, fr));
    _mm512_mask_storeu_pd(re + base, lane, nr);
    _mm512_mask_storeu_pd(im + base, lane, ni);
  });
}

void rz_soa(const SoaSpan& s, int target, cplx f0, cplx f1, amp_index ctrl) {
  if (s.n < 8) {
    scalar_ops().rz_soa(s, target, f0, f1, ctrl);
    return;
  }
  real_t* const re = s.re;
  real_t* const im = s.im;
  const __mmask8 ctrl_lane = low3_lane_mask(ctrl & 7);
  const amp_index ctrl_hi = ctrl & ~amp_index{7};
  const v8d f0r = _mm512_set1_pd(f0.real()), f0i = _mm512_set1_pd(f0.imag());
  const v8d f1r = _mm512_set1_pd(f1.real()), f1i = _mm512_set1_pd(f1.imag());

  v8d frv_fixed = f0r, fiv_fixed = f0i;
  const bool lane_target = target < 3;
  if (lane_target) {
    __mmask8 tmask = 0;
    for (int l = 0; l < 8; ++l) {
      if ((l >> target) & 1) {
        tmask = static_cast<__mmask8>(tmask | (1u << l));
      }
    }
    frv_fixed = _mm512_mask_blend_pd(tmask, f0r, f1r);
    fiv_fixed = _mm512_mask_blend_pd(tmask, f0i, f1i);
  }
  parallel_for(s.n, static_cast<int64_t>(s.n) / 8, [=](int64_t vec) {
    const int64_t base = 8 * vec;
    if (!bits::all_set(static_cast<amp_index>(base), ctrl_hi)) {
      return;
    }
    v8d frv = frv_fixed, fiv = fiv_fixed;
    if (!lane_target) {
      const bool one =
          bits::bit(static_cast<amp_index>(base), target) != 0;
      frv = one ? f1r : f0r;
      fiv = one ? f1i : f0i;
    }
    const v8d vr = _mm512_loadu_pd(re + base);
    const v8d vi = _mm512_loadu_pd(im + base);
    const v8d nr =
        _mm512_sub_pd(_mm512_mul_pd(vr, frv), _mm512_mul_pd(vi, fiv));
    const v8d ni =
        _mm512_add_pd(_mm512_mul_pd(vr, fiv), _mm512_mul_pd(vi, frv));
    _mm512_mask_storeu_pd(re + base, ctrl_lane, nr);
    _mm512_mask_storeu_pd(im + base, ctrl_lane, ni);
  });
}

// Composed entries: matrix2/swap ride the AVX2 implementations.
void matrix2_soa(const SoaSpan& s, int a, int b, const Mat4& u,
                 amp_index c) {
  avx2_ops().matrix2_soa(s, a, b, u, c);
}
void swap_soa(const SoaSpan& s, int a, int b) { avx2_ops().swap_soa(s, a, b); }

constexpr KernelOps kAvx512Ops = {
    "avx512", matrix1_soa, matrix2_soa, swap_soa, phase_soa, rz_soa,
};

}  // namespace

const KernelOps& avx512_ops() { return kAvx512Ops; }

}  // namespace qsv::simd
