// Direct kernel-level tests: slice semantics with rank offsets, the
// distributed combine kernels, and the half-exchange gather/scatter pair.
#include "sv/kernels.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

template <class S>
S random_slice(amp_index n, std::uint64_t seed) {
  S s(n);
  Rng rng(seed);
  for (amp_index i = 0; i < n; ++i) {
    s.set(i, cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  return s;
}

template <class S>
class KernelsTyped : public testing::Test {};

using Storages = testing::Types<SoaStorage, AosStorage>;
TYPED_TEST_SUITE(KernelsTyped, Storages);

TYPED_TEST(KernelsTyped, SplitControls) {
  const auto m = kern::split_controls({1, 3, 34, 36}, 32);
  EXPECT_EQ(m.local, (amp_index{1} << 1) | (amp_index{1} << 3));
  EXPECT_EQ(m.high, (amp_index{1} << 2) | (amp_index{1} << 4));
}

TYPED_TEST(KernelsTyped, DiagonalWithHighBitsUsesRankId) {
  // Z on qubit 5 with L = 3: only slices whose rank bit 2 is set flip sign.
  auto s0 = random_slice<TypeParam>(8, 1);
  auto s1 = random_slice<TypeParam>(8, 1);
  const Gate z = make_z(5);
  kern::apply_gate_slice(s0, z, 3, /*rank_bits=*/0b011);  // bit 2 clear
  kern::apply_gate_slice(s1, z, 3, /*rank_bits=*/0b100);  // bit 2 set

  const auto ref = random_slice<TypeParam>(8, 1);
  for (amp_index i = 0; i < 8; ++i) {
    EXPECT_EQ(s0.get(i), ref.get(i));            // untouched
    EXPECT_EQ(s1.get(i), -ref.get(i));           // sign-flipped everywhere
  }
}

TYPED_TEST(KernelsTyped, HighControlGatesParticipation) {
  // CX with control on a rank bit: a slice whose rank fails the control is
  // untouched; one that passes applies X on the local target.
  const Gate cx = make_cx(4, 1);  // control 4 is rank bit 1 when L = 3
  auto pass = random_slice<TypeParam>(8, 2);
  auto fail = random_slice<TypeParam>(8, 2);
  kern::apply_gate_slice(pass, cx, 3, 0b10);
  kern::apply_gate_slice(fail, cx, 3, 0b01);

  const auto ref = random_slice<TypeParam>(8, 2);
  for (amp_index i = 0; i < 8; ++i) {
    EXPECT_EQ(fail.get(i), ref.get(i));
    EXPECT_EQ(pass.get(i), ref.get(bits::flip_bit(i, 1)));
  }
}

TYPED_TEST(KernelsTyped, RzOnHighTargetPhasesWholeSlice) {
  const real_t theta = 0.8;
  const Gate rz = make_rz(4, theta);  // rank bit 1 when L = 3
  auto lo = random_slice<TypeParam>(8, 3);
  auto hi = random_slice<TypeParam>(8, 3);
  kern::apply_gate_slice(lo, rz, 3, 0b00);
  kern::apply_gate_slice(hi, rz, 3, 0b10);

  const auto ref = random_slice<TypeParam>(8, 3);
  for (amp_index i = 0; i < 8; ++i) {
    EXPECT_LT(std::abs(lo.get(i) -
                       ref.get(i) * std::polar<real_t>(1, -theta / 2)),
              1e-12);
    EXPECT_LT(std::abs(hi.get(i) -
                       ref.get(i) * std::polar<real_t>(1, theta / 2)),
              1e-12);
  }
}

TYPED_TEST(KernelsTyped, FusedPhaseMixedHighLowControls) {
  // Target local (bit 0), one local control (bit 1), one high control
  // (qubit 4 = rank bit 1 at L = 3).
  const Gate g = make_fused_phase(0, {1, 4}, {0.3, 0.5});
  auto s = random_slice<TypeParam>(8, 4);
  kern::apply_gate_slice(s, g, 3, 0b10);  // high control satisfied

  const auto ref = random_slice<TypeParam>(8, 4);
  for (amp_index i = 0; i < 8; ++i) {
    real_t phase = 0;
    if (bits::bit(i, 0)) {
      phase = 0.5 + (bits::bit(i, 1) ? 0.3 : 0.0);
    }
    EXPECT_LT(std::abs(s.get(i) - ref.get(i) * std::polar<real_t>(1, phase)),
              1e-12)
        << i;
  }
}

TYPED_TEST(KernelsTyped, ApplyGateSliceRejectsDistributed) {
  auto s = random_slice<TypeParam>(8, 5);
  EXPECT_THROW(kern::apply_gate_slice(s, make_h(5), 3, 0), Error);
}

TYPED_TEST(KernelsTyped, CombineMatrix1ReconstructsHadamard) {
  // Simulate the two sides of a distributed H by hand and compare to the
  // 1-qubit formula: lo' = (lo + hi)/sqrt(2); hi' = (lo - hi)/sqrt(2).
  const amp_index n = 16;
  auto lo = random_slice<TypeParam>(n, 6);
  auto hi = random_slice<TypeParam>(n, 7);
  const auto lo_ref = random_slice<TypeParam>(n, 6);
  const auto hi_ref = random_slice<TypeParam>(n, 7);
  const Mat2 h = gate_matrix2(make_h(0));

  kern::combine_matrix1(lo, hi_ref, 0, h, 0);
  kern::combine_matrix1(hi, lo_ref, 1, h, 0);
  const real_t s = std::numbers::sqrt2_v<real_t> / 2;
  for (amp_index i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(lo.get(i) - (lo_ref.get(i) + hi_ref.get(i)) * s),
              1e-12);
    EXPECT_LT(std::abs(hi.get(i) - (lo_ref.get(i) - hi_ref.get(i)) * s),
              1e-12);
  }
}

TYPED_TEST(KernelsTyped, CombineSwapOneHigh) {
  const amp_index n = 16;
  const int a = 1;  // local swap bit
  auto mine = random_slice<TypeParam>(n, 8);
  const auto peer = random_slice<TypeParam>(n, 9);
  const auto ref = random_slice<TypeParam>(n, 8);
  kern::combine_swap_one_high(mine, peer, a, /*my_high_bit=*/0);
  for (amp_index i = 0; i < n; ++i) {
    if (bits::bit(i, a) != 0) {
      EXPECT_EQ(mine.get(i), peer.get(bits::flip_bit(i, a)));
    } else {
      EXPECT_EQ(mine.get(i), ref.get(i));
    }
  }
}

TYPED_TEST(KernelsTyped, GatherScatterRoundTrip) {
  const amp_index n = 32;
  const int a = 2;
  const auto src = random_slice<TypeParam>(n, 10);
  TypeParam buf(n / 2);

  for (int value : {0, 1}) {
    kern::gather_half(src, a, value, buf, 0);
    auto dst = random_slice<TypeParam>(n, 11);
    const auto dst_ref = random_slice<TypeParam>(n, 11);
    kern::scatter_half(dst, a, value, buf, 0, n / 2);
    for (amp_index i = 0; i < n; ++i) {
      if (bits::bit(i, a) == value) {
        EXPECT_EQ(dst.get(i), src.get(i));
      } else {
        EXPECT_EQ(dst.get(i), dst_ref.get(i));
      }
    }
  }
}

TYPED_TEST(KernelsTyped, HalfExchangeEqualsFullExchangeSwap) {
  // One-high SWAP implemented via gather/exchange-half/scatter must equal
  // the full-exchange combine.
  const amp_index n = 32;
  const int a = 3;
  auto full_lo = random_slice<TypeParam>(n, 12);
  auto full_hi = random_slice<TypeParam>(n, 13);
  auto half_lo = random_slice<TypeParam>(n, 12);
  auto half_hi = random_slice<TypeParam>(n, 13);
  const auto lo_ref = random_slice<TypeParam>(n, 12);
  const auto hi_ref = random_slice<TypeParam>(n, 13);

  kern::combine_swap_one_high(full_lo, hi_ref, a, 0);
  kern::combine_swap_one_high(full_hi, lo_ref, a, 1);

  // Half path: rank 0 (b-bit 0) ships its bit_a==1 half; rank 1 ships
  // bit_a==0; each scatters what it received into the moving half.
  TypeParam lo_to_hi(n / 2);
  TypeParam hi_to_lo(n / 2);
  kern::gather_half(half_lo, a, 1, lo_to_hi, 0);
  kern::gather_half(half_hi, a, 0, hi_to_lo, 0);
  kern::scatter_half(half_lo, a, 1, hi_to_lo, 0, n / 2);
  kern::scatter_half(half_hi, a, 0, lo_to_hi, 0, n / 2);

  for (amp_index i = 0; i < n; ++i) {
    EXPECT_EQ(full_lo.get(i), half_lo.get(i)) << i;
    EXPECT_EQ(full_hi.get(i), half_hi.get(i)) << i;
  }
}

}  // namespace
}  // namespace qsv
