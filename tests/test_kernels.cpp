// Direct kernel-level tests: slice semantics with rank offsets, the
// distributed combine kernels, and the half-exchange gather/scatter pair.
#include "sv/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "circuit/matrix.hpp"
#include "common/parallel.hpp"
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

using Storages = testing::Types<SoaStorage>;
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

/// A slice's amplitudes [first, first + count) as a message payload lays
/// them out: `count` real parts, then `count` imaginary parts.
template <class S>
std::vector<real_t> payload_of(const S& s, amp_index first, amp_index count) {
  std::vector<real_t> p(2 * count);
  s.pack(first, count, reinterpret_cast<std::byte*>(p.data()));
  return p;
}

kern::PeerSpan span_of(const std::vector<real_t>& payload, amp_index first) {
  const amp_index count = payload.size() / 2;
  return {payload.data(), payload.data() + count, first, count};
}

/// `peer`'s stream cut into messages of `chunk` amplitudes.
template <class S>
std::vector<std::vector<real_t>> chunks_of(const S& peer, amp_index total,
                                           amp_index chunk) {
  std::vector<std::vector<real_t>> out;
  for (amp_index first = 0; first < total; first += chunk) {
    out.push_back(payload_of(peer, first, std::min(chunk, total - first)));
  }
  return out;
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

  const std::vector<real_t> from_hi = payload_of(hi_ref, 0, n);
  const std::vector<real_t> from_lo = payload_of(lo_ref, 0, n);
  kern::combine_matrix1_range(lo, span_of(from_hi, 0), 0, h, 0, 0, n);
  kern::combine_matrix1_range(hi, span_of(from_lo, 0), 1, h, 0, 0, n);
  const real_t s = std::numbers::sqrt2_v<real_t> / 2;
  for (amp_index i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(lo.get(i) - (lo_ref.get(i) + hi_ref.get(i)) * s),
              1e-12);
    EXPECT_LT(std::abs(hi.get(i) - (lo_ref.get(i) - hi_ref.get(i)) * s),
              1e-12);
  }
}

TYPED_TEST(KernelsTyped, CombineMatrix1IsTheComplexFormulaBitForBit) {
  // The written-out re/im arithmetic must give the bits of
  // diag * mine + off * theirs in std::complex, for a complex unitary, with
  // and without a local control, whether the peer's stream arrives as one
  // message or as ragged chunks, at loop widths 1 and 4 (2^17 amplitudes
  // open a team).
  const test::LoopWidthGuard restore;
  const amp_index n = amp_index{1} << 17;
  const auto peer = random_slice<TypeParam>(n, 21);
  const auto start = random_slice<TypeParam>(n, 22);
  Rng rng(23);
  const Mat2 u = gate_matrix2(make_unitary1(0, random_unitary1_params(rng)));
  for (const int width : {1, 4}) {
    set_loop_width(width);
    for (const amp_index ctrl : {amp_index{0}, amp_index{0b101}}) {
      for (const amp_index chunk : {n, amp_index{65537}, amp_index{3}}) {
        SCOPED_TRACE(testing::Message() << "width " << width << ", ctrl "
                                        << ctrl << ", chunk " << chunk);
        for (const int row : {0, 1}) {
          TypeParam mine = start;
          const std::vector<std::vector<real_t>> msgs =
              chunks_of(peer, n, chunk);
          for (std::size_t c = 0; c < msgs.size(); ++c) {
            kern::combine_matrix1_range(mine, span_of(msgs[c], c * chunk), row,
                                        u, ctrl, 0, n);
          }
          const cplx diag = u.m[row][row];
          const cplx off = u.m[row][1 - row];
          for (amp_index i = 0; i < n; ++i) {
            const cplx want = bits::all_set(i, ctrl)
                                  ? diag * start.get(i) + off * peer.get(i)
                                  : start.get(i);
            const cplx got = mine.get(i);
            ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << i;
          }
        }
      }
    }
  }
}

TYPED_TEST(KernelsTyped, CombineSwapOneHigh) {
  const amp_index n = 16;
  const int a = 1;  // local swap bit
  auto mine = random_slice<TypeParam>(n, 8);
  const auto peer = random_slice<TypeParam>(n, 9);
  const auto ref = random_slice<TypeParam>(n, 8);
  const std::vector<real_t> msg = payload_of(peer, 0, n);
  kern::combine_swap_one_high_range(mine, span_of(msg, 0), a,
                                    /*my_high_bit=*/0, 0, n);
  for (amp_index i = 0; i < n; ++i) {
    if (bits::bit(i, a) != 0) {
      EXPECT_EQ(mine.get(i), peer.get(bits::flip_bit(i, a)));
    } else {
      EXPECT_EQ(mine.get(i), ref.get(i));
    }
  }
}

TYPED_TEST(KernelsTyped, SwapCombinesReadPartnersAcrossMessages) {
  // A full-exchange SWAP reads partner flip_bit(i, a), which lies in
  // another message whenever a chunk is not a multiple of 2^(a+1)
  // amplitudes. Handing a region every message that overlaps its
  // alignment blocks must give the one-message result, for every region
  // split the frontier driver makes (whole blocks, or pieces of a half
  // block when a tile is smaller than the alignment), on both sides.
  const amp_index n = 64;
  const auto peer = random_slice<TypeParam>(n, 31);
  const auto start = random_slice<TypeParam>(n, 32);
  for (const int a : {0, 1, 2, 3, 5}) {
    for (const int high : {0, 1}) {
      TypeParam want = start;
      const std::vector<real_t> whole = payload_of(peer, 0, n);
      kern::combine_swap_one_high_range(want, span_of(whole, 0), a, high, 0,
                                        n);
      TypeParam two_high = start;
      kern::combine_swap_two_high_range(two_high, span_of(whole, 0), 0, n);
      for (const amp_index chunk : {amp_index{1}, amp_index{3},
                                    amp_index{6}, amp_index{64}}) {
        for (const amp_index region : {amp_index{1}, amp_index{4},
                                       amp_index{64}}) {
          SCOPED_TRACE(testing::Message() << "a " << a << ", high " << high
                                          << ", chunk " << chunk
                                          << ", region " << region);
          const std::vector<std::vector<real_t>> msgs =
              chunks_of(peer, n, chunk);
          TypeParam got = start;
          TypeParam got_two = start;
          for (amp_index first = 0; first < n; first += region) {
            for (std::size_t c = 0; c < msgs.size(); ++c) {
              const kern::PeerSpan p = span_of(msgs[c], c * chunk);
              kern::combine_swap_one_high_range(got, p, a, high, first,
                                                region);
              kern::combine_swap_two_high_range(got_two, p, first, region);
            }
          }
          for (amp_index i = 0; i < n; ++i) {
            ASSERT_EQ(got.get(i), want.get(i)) << i;
            ASSERT_EQ(got_two.get(i), two_high.get(i)) << i;
          }
        }
      }
    }
  }
}

TYPED_TEST(KernelsTyped, GatherScatterRoundTrip) {
  // Gathered and scattered in pieces, as ragged chunks of a half exchange
  // are, the round trip moves exactly the half whose bit `a` is `value`.
  const amp_index n = 32;
  for (const int a : {0, 2, 4}) {
    const auto src = random_slice<TypeParam>(n, 10);
    for (int value : {0, 1}) {
      for (const amp_index chunk : {amp_index{3}, amp_index{16}}) {
        SCOPED_TRACE(testing::Message() << "a " << a << ", value " << value
                                        << ", chunk " << chunk);
        auto dst = random_slice<TypeParam>(n, 11);
        const auto dst_ref = random_slice<TypeParam>(n, 11);
        for (amp_index first = 0; first < n / 2; first += chunk) {
          const amp_index count = std::min(chunk, n / 2 - first);
          std::vector<real_t> msg(2 * count);
          kern::gather_half(src, a, value, first, count,
                            reinterpret_cast<std::byte*>(msg.data()));
          kern::scatter_half(dst, a, value, span_of(msg, first), 0, n / 2);
        }
        for (amp_index i = 0; i < n; ++i) {
          if (bits::bit(i, a) == value) {
            EXPECT_EQ(dst.get(i), src.get(i));
          } else {
            EXPECT_EQ(dst.get(i), dst_ref.get(i));
          }
        }
      }
    }
  }
}

/// Whether two slices hold the same bytes.
template <class S>
bool same_bytes(const S& a, const S& b) {
  const std::size_t bytes = a.size() * sizeof(real_t);
  return a.size() == b.size() && std::memcmp(a.re(), b.re(), bytes) == 0 &&
         std::memcmp(a.im(), b.im(), bytes) == 0;
}

/// The three half copies of a distributed SWAP on one rank's slice, checked
/// byte for byte against their definitions at every victim bit a of a
/// 2^12-amplitude slice, on both sides: the full exchange's combine (an
/// amplitude whose bit a differs from the rank's bit reads the peer's
/// i ^ 2^a), the half exchange's gather (packed index k is the k-th
/// amplitude whose bit a is the sent value) and its scatter. Peer streams
/// arrive whole and in 3-, 65- and 4095-amplitude chunks; regions are the
/// whole slice, blocks of 2^(a+1) (the frontier's alignment) and ragged
/// 1000-amplitude tiles. Packed ranges span several of the copies' pieces,
/// so a piece boundary or a run the loop drops shows.
template <class S>
void check_half_copies(amp_index n, std::uint64_t seed) {
  const S peer = random_slice<S>(n, seed);
  const S start = random_slice<S>(n, seed + 1);
  const int local_qubits = bits::log2_exact(n);
  for (int a = 0; a < local_qubits; ++a) {
    const amp_index bit = amp_index{1} << a;
    for (const int high : {0, 1}) {
      SCOPED_TRACE(testing::Message() << "n " << n << ", a " << a
                                      << ", rank bit " << high);
      // Combine: every chunking of the peer's stream, every region split.
      S want = start;
      for (amp_index i = 0; i < n; ++i) {
        if (bits::bit(i, a) != high) {
          want.set(i, peer.get(i ^ bit));
        }
      }
      for (const amp_index chunk : {n, amp_index{3}, amp_index{65},
                                    amp_index{4095}}) {
        const std::vector<std::vector<real_t>> msgs =
            chunks_of(peer, n, chunk);
        for (const amp_index region : {n, 2 * bit, amp_index{1000}}) {
          S got = start;
          for (amp_index first = 0; first < n; first += region) {
            for (std::size_t c = 0; c < msgs.size(); ++c) {
              kern::combine_swap_one_high_range(
                  got, span_of(msgs[c], c * chunk), a, high, first,
                  std::min(region, n - first));
            }
          }
          ASSERT_TRUE(same_bytes(got, want))
              << "combine, chunk " << chunk << ", region " << region;
        }
      }
      // Gather and scatter of the half whose bit a is `high`, in chunks.
      const amp_index half = n / 2;
      std::vector<real_t> packed(2 * half);
      S scattered = start;
      for (amp_index k = 0; k < half; ++k) {
        const amp_index i = bits::insert_zero_bit(k, a) |
                            (static_cast<amp_index>(high) << a);
        packed[k] = peer.re()[i];
        packed[half + k] = peer.im()[i];
        scattered.set(i, peer.get(i));
      }
      for (const amp_index chunk : {half, amp_index{3}, amp_index{65},
                                    amp_index{4095}}) {
        S got = start;
        for (amp_index first = 0; first < half; first += chunk) {
          const amp_index count = std::min(chunk, half - first);
          std::vector<real_t> msg(2 * count);
          kern::gather_half(peer, a, high, first, count,
                            reinterpret_cast<std::byte*>(msg.data()));
          ASSERT_TRUE(std::equal(msg.begin(), msg.begin() + count,
                                 packed.begin() + first) &&
                      std::equal(msg.begin() + count, msg.end(),
                                 packed.begin() + half + first))
              << "gather, chunk " << chunk << ", first " << first;
          for (const amp_index region : {half, amp_index{1000}}) {
            for (amp_index r = 0; r < half; r += region) {
              kern::scatter_half(got, a, high, span_of(msg, first), r,
                                 std::min(region, half - r));
            }
          }
        }
        ASSERT_TRUE(same_bytes(got, scattered)) << "scatter, chunk " << chunk;
      }
    }
  }
}

TYPED_TEST(KernelsTyped, HalfCopiesMatchTheirDefinitionAtEveryVictimBit) {
  check_half_copies<TypeParam>(amp_index{1} << 12, 41);
}

TYPED_TEST(KernelsTyped, HalfCopiesSplitAcrossTheTeamMatchTheDefinition) {
  // 2^17 amplitudes open a team: the pieces are split across it at every
  // loop width, including one that leaves a thread a short last share.
  const test::LoopWidthGuard restore;
  for (const int width : {1, 3, 4}) {
    set_loop_width(width);
    SCOPED_TRACE(testing::Message() << "width " << width);
    const amp_index n = amp_index{1} << 17;
    const TypeParam peer = random_slice<TypeParam>(n, 51);
    const TypeParam start = random_slice<TypeParam>(n, 52);
    for (const int a : {0, 1, 5, 16}) {
      const amp_index bit = amp_index{1} << a;
      TypeParam want = start;
      for (amp_index i = 0; i < n; ++i) {
        if (bits::bit(i, a) != 1) {
          want.set(i, peer.get(i ^ bit));
        }
      }
      for (const amp_index chunk : {n, amp_index{65537}}) {
        TypeParam got = start;
        const std::vector<std::vector<real_t>> msgs =
            chunks_of(peer, n, chunk);
        for (std::size_t c = 0; c < msgs.size(); ++c) {
          kern::combine_swap_one_high_range(got, span_of(msgs[c], c * chunk),
                                            a, 1, 0, n);
        }
        ASSERT_TRUE(same_bytes(got, want)) << "a " << a << ", chunk "
                                           << chunk;
      }
      std::vector<real_t> msg(n);
      kern::gather_half(peer, a, 0, 0, n / 2,
                        reinterpret_cast<std::byte*>(msg.data()));
      TypeParam scattered = start;
      kern::scatter_half(scattered, a, 0, span_of(msg, 0), 0, n / 2);
      TypeParam scatter_want = start;
      for (amp_index k = 0; k < n / 2; ++k) {
        const amp_index i = bits::insert_zero_bit(k, a);
        ASSERT_EQ(msg[k], peer.re()[i]) << "a " << a << ", k " << k;
        ASSERT_EQ(msg[n / 2 + k], peer.im()[i]) << "a " << a << ", k " << k;
        scatter_want.set(i, peer.get(i));
      }
      ASSERT_TRUE(same_bytes(scattered, scatter_want)) << "a " << a;
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

  const std::vector<real_t> from_hi = payload_of(hi_ref, 0, n);
  const std::vector<real_t> from_lo = payload_of(lo_ref, 0, n);
  kern::combine_swap_one_high_range(full_lo, span_of(from_hi, 0), a, 0, 0, n);
  kern::combine_swap_one_high_range(full_hi, span_of(from_lo, 0), a, 1, 0, n);

  // Half path: rank 0 (b-bit 0) ships its bit_a==1 half; rank 1 ships
  // bit_a==0; each scatters what it received into the moving half.
  std::vector<real_t> lo_to_hi(n);
  std::vector<real_t> hi_to_lo(n);
  kern::gather_half(half_lo, a, 1, 0, n / 2,
                    reinterpret_cast<std::byte*>(lo_to_hi.data()));
  kern::gather_half(half_hi, a, 0, 0, n / 2,
                    reinterpret_cast<std::byte*>(hi_to_lo.data()));
  kern::scatter_half(half_lo, a, 1, span_of(hi_to_lo, 0), 0, n / 2);
  kern::scatter_half(half_hi, a, 0, span_of(lo_to_hi, 0), 0, n / 2);

  for (amp_index i = 0; i < n; ++i) {
    EXPECT_EQ(full_lo.get(i), half_lo.get(i)) << i;
    EXPECT_EQ(full_hi.get(i), half_hi.get(i)) << i;
  }
}

}  // namespace
}  // namespace qsv
