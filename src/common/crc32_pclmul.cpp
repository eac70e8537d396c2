// CRC-32 bulk fold with carry-less multiplication: Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (Intel,
// 2009), in the bit-reflected form zlib and Chromium use for the IEEE
// polynomial 0xEDB88320. Four 128-bit lanes fold 64 bytes per step, then
// collapse to one lane, fold the remaining 16-byte blocks, reduce 128 to 64
// bits and Barrett-reduce to the 32-bit remainder. The 512-bit fold
// (crc32_vpclmul.cpp) finishes here too, from its last 64 folded bytes.
// The result equals the table loop's on every input (tests/test_crc32.cpp
// checks it against a bitwise reference).
//
// This translation unit alone is compiled with -mpclmul -msse4.1; crc32.cpp
// calls it only after a CPUID check.
#include <emmintrin.h>
#include <smmintrin.h>
#include <wmmintrin.h>

#include "common/crc32_fold.hpp"

namespace qsv::detail {
namespace {

__m128i load(const unsigned char* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

/// a * k (low halves) ^ a * k (high halves) ^ next: one 128-bit fold.
__m128i fold(__m128i a, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Folds `len` more bytes at p (a multiple of 16) into the four lanes
/// x1..x4, which hold the 64 bytes before them, and reduces to the CRC
/// register.
std::uint32_t fold_lanes(__m128i x1, __m128i x2, __m128i x3, __m128i x4,
                         const unsigned char* p, std::size_t len) {
  // Folding constants x^k mod P (bit-reflected, shifted by one) from the
  // paper's appendix: k1/k2 fold across 512 bits, k3/k4 across 128, k5
  // folds 64 to 32; then P itself and the Barrett constant mu.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  while (len >= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
    p += 64;
    len -= 64;
  }

  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  while (len >= 16) {
    x1 = fold(x1, k3k4, load(p));
    p += 16;
    len -= 16;
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5k0, 0x00);
  x1 = _mm_xor_si128(x1, x2);

  // Barrett reduction to 32 bits.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

}  // namespace

std::uint32_t crc32_fold_pclmul(const unsigned char* p, std::size_t len,
                                std::uint32_t state) noexcept {
  const __m128i x1 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  return fold_lanes(x1, load(p + 16), load(p + 32), load(p + 48), p + 64,
                    len - 64);
}

std::uint32_t crc32_fold_pclmul_lanes(const unsigned char* lanes,
                                      const unsigned char* p,
                                      std::size_t len) noexcept {
  return fold_lanes(load(lanes), load(lanes + 16), load(lanes + 32),
                    load(lanes + 48), p, len);
}

}  // namespace qsv::detail
