// AVX-512 backend: 512-bit split re/im lanes for matrix1, matrix2, phase
// and rz, and 8 readout chains per register. swap, and the readout's lone
// chain, compose the AVX2 table's entries — worked examples of the
// partial-backend composition rule in docs/KERNELS.md.
//
// Compiled with -mavx512f -ffp-contract=off. matrix2 is the matrix2 chain
// of FMA instructions (AVX-512F has them); every other kernel multiplies,
// then adds, as the scalar reference does (bit-identity contract, see
// kernels_scalar.cpp). Only the table getter is exported.
#include <immintrin.h>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "sv/simd/backends.hpp"
#include "sv/simd/diag_sums.hpp"
#include "sv/simd/quad_plan.hpp"

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

// matrix2 takes every target pair in groups of whole quads
// (sv/simd/quad_plan.hpp): lane bits are 0..2, and every output lane runs
// the matrix2 chain, where _mm512_fnmadd_pd(a, b, c) rounds -(a * b) + c
// once, which is std::fma(-a, b, c).

/// _mm512_permutexvar_pd written in its all-lanes masked form: GCC 12
/// reports the unmasked intrinsic's undefined pass-through operand as
/// maybe-uninitialized. Both compile to one unmasked vpermpd.
inline v8d permute(__m512i idx, v8d v) {
  return _mm512_maskz_permutexvar_pd(0xFF, idx, v);
}

/// A QuadPlan in registers: the permutexvar index of each column's member,
/// and per output vector v and column c the lane-wise entries u[row][c].
template <unsigned kVecBits>
struct QuadLayout {
  using Plan = QuadPlan<8, kVecBits>;
  static constexpr int kVecs = Plan::kVecs;
  int64_t offset[kVecs];
  __m512i member[4];
  v8d ur[kVecs][4], ui[kVecs][4];
};

template <unsigned kVecBits>
QuadLayout<kVecBits> quad_layout(int a, int b, const Mat4& u) {
  const QuadPlan<8, kVecBits> p = quad_plan<8, kVecBits>(a, b);
  QuadLayout<kVecBits> q{};
  for (int j = 0; j < q.kVecs; ++j) {
    q.offset[j] = p.offset[j];
  }
  for (int c = 0; c < 4; ++c) {
    alignas(64) int64_t idx[8];
    for (int l = 0; l < 8; ++l) {
      idx[l] = p.member[c][l];
    }
    q.member[c] = _mm512_load_si512(idx);
  }
  for (int v = 0; v < q.kVecs; ++v) {
    for (int c = 0; c < 4; ++c) {
      alignas(64) double r[8], i[8];
      for (int l = 0; l < 8; ++l) {
        r[l] = u.m[p.row[v][l]][c].real();
        i[l] = u.m[p.row[v][l]][c].imag();
      }
      q.ur[v][c] = _mm512_load_pd(r);
      q.ui[v][c] = _mm512_load_pd(i);
    }
  }
  return q;
}

template <unsigned kVecBits>
void matrix2_groups(const SoaSpan& s, int a, int b, const Mat4& u) {
  using Layout = QuadLayout<kVecBits>;
  constexpr int kVecs = Layout::kVecs;
  real_t* const re = s.re;
  real_t* const im = s.im;
  const Layout q = quad_layout<kVecBits>(a, b, u);
  const int lo = a < b ? a : b;
  const int hi = a < b ? b : a;
  parallel_for(s.n, static_cast<int64_t>(s.n) / (8 * kVecs),
               [=](int64_t group) {
    const amp_index base = group_base<8, kVecBits>(group, lo, hi);
    v8d vr[kVecs], vi[kVecs];
    for (int j = 0; j < kVecs; ++j) {
      vr[j] = _mm512_loadu_pd(re + base + q.offset[j]);
      vi[j] = _mm512_loadu_pd(im + base + q.offset[j]);
    }
    v8d xr[4], xi[4];
    for (int c = 0; c < 4; ++c) {
      if constexpr (kVecBits == 3) {
        xr[c] = vr[c];
        xi[c] = vi[c];
      } else {
        const int j = vector_of<kVecBits>(c);
        xr[c] = permute(q.member[c], vr[j]);
        xi[c] = permute(q.member[c], vi[j]);
      }
    }
    for (int v = 0; v < kVecs; ++v) {
      v8d accr = _mm512_setzero_pd();
      v8d acci = _mm512_setzero_pd();
      for (int c = 0; c < 4; ++c) {
        accr = _mm512_fnmadd_pd(q.ui[v][c], xi[c],
                                _mm512_fmadd_pd(q.ur[v][c], xr[c], accr));
        acci = _mm512_fmadd_pd(q.ui[v][c], xr[c],
                               _mm512_fmadd_pd(q.ur[v][c], xi[c], acci));
      }
      _mm512_storeu_pd(re + base + q.offset[v], accr);
      _mm512_storeu_pd(im + base + q.offset[v], acci);
    }
  });
}

void matrix2_soa(const SoaSpan& s, int a, int b, const Mat4& u,
                 amp_index ctrl) {
  if (ctrl != 0 || s.n < 8) {
    scalar_ops().matrix2_soa(s, a, b, u, ctrl);
    return;
  }
  switch ((a >= 3 ? 1 : 0) | (b >= 3 ? 2 : 0)) {
    case 0:
      matrix2_groups<0>(s, a, b, u);
      return;
    case 1:
      matrix2_groups<1>(s, a, b, u);
      return;
    case 2:
      matrix2_groups<2>(s, a, b, u);
      return;
    default:
      matrix2_groups<3>(s, a, b, u);
      return;
  }
}

// Composed entry: swap rides the AVX2 implementation.
void swap_soa(const SoaSpan& s, int a, int b) { avx2_ops().swap_soa(s, a, b); }

// A lone chain gains nothing from 512-bit registers, and this file's build
// of it forms |a|^2 in them, which lowers the clock on hosts that slow down
// for 512-bit work: one mask (the norm) rides the AVX2 entry, which took
// 0.36-0.42 ms against 0.61 ms over 2^19 amplitudes on the reference host
// (docs/KERNELS.md §5).
void diag_sums_soa(const real_t* re, const real_t* im, amp_index n,
                   amp_index base, const amp_index* masks, std::size_t count,
                   real_t* acc) {
  if (count == 1) {
    avx2_ops().diag_sums(re, im, n, base, masks, count, acc);
    return;
  }
  diag_sums<8>(re, im, n, base, masks, count, acc);
}

constexpr KernelOps kAvx512Ops = {
    "avx512", matrix1_soa, matrix2_soa, swap_soa, phase_soa, rz_soa,
    diag_sums_soa,
};

}  // namespace

const KernelOps& avx512_ops() { return kAvx512Ops; }

}  // namespace qsv::simd
