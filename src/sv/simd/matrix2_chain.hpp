// Internal: the scalar table's matrix2 loop, which both of its builds
// compile (kernels_scalar.cpp for the baseline ISA, kernels_scalar_fma.cpp
// with -mfma). Each output of a quad starts from +0 and takes the four
// columns in subspace order as
//   re = madd(-ui, xi, madd(ur, xr, re)),  im = madd(ui, xr, madd(ur, xi, im)),
// where `madd` is the fma call the including kernels_*.cpp unit passes in:
// a libm call in the baseline build, one instruction in the -mfma one, and
// the same correctly rounded double in both. Everything here sits in an
// unnamed namespace, so each build's copy stays in its own translation
// unit, compiled for its ISA.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "sv/simd/simd.hpp"

namespace qsv::simd {
namespace {

template <class Madd>
void matrix2_chain(const SoaSpan& s, int a, int b, const Mat4& u,
                   amp_index ctrl, Madd madd) {
  real_t* const re = s.re;
  real_t* const im = s.im;
  real_t ur[4][4], ui[4][4];
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      ur[row][col] = u.m[row][col].real();
      ui[row][col] = u.m[row][col].imag();
    }
  }
  const int lo = a < b ? a : b;
  const int hi = a < b ? b : a;
  const std::int64_t quads = static_cast<std::int64_t>(s.n) / 4;
  parallel_for(s.n, quads, [=](std::int64_t k) {
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
        accr = madd(-ui[row][col], ini[col],
                    madd(ur[row][col], inr[col], accr));
        acci = madd(ui[row][col], inr[col],
                    madd(ur[row][col], ini[col], acci));
      }
      re[idx[row]] = accr;
      im[idx[row]] = acci;
    }
  });
}

}  // namespace
}  // namespace qsv::simd
