// CRC-32 bulk fold over 512-bit registers with VPCLMULQDQ: the fold of
// crc32_pclmul.cpp, four 128-bit lanes to a register. Four registers fold
// 256 bytes per step with the constants x^2080 and x^2016 mod P, in that
// file's convention (bit-reflected, shifted by one, the low qword's
// constant for each lane's low half), then collapse into one register with
// its 512-bit constants x^544 and x^480. The 64 folded bytes and the
// remaining 16-byte blocks go to its 128-bit fold and Barrett reduction, so
// the result equals the table loop's on every input (tests/test_crc32.cpp).
//
// This translation unit alone is compiled with -mavx512f -mvpclmulqdq;
// crc32.cpp calls it only after a CPUID check, for at least 256 bytes.
#include <immintrin.h>

#include "common/crc32_fold.hpp"

namespace qsv::detail {
namespace {

__m512i load(const unsigned char* q) { return _mm512_loadu_si512(q); }

/// a * k (low halves) ^ a * k (high halves) ^ next, in each 128-bit lane.
__m512i fold(__m512i a, __m512i k, __m512i next) {
  const __m512i lo = _mm512_clmulepi64_epi128(a, k, 0x00);
  const __m512i hi = _mm512_clmulepi64_epi128(a, k, 0x11);
  return _mm512_ternarylogic_epi64(lo, hi, next, 0x96);  // lo ^ hi ^ next
}

/// The same (high, low) constant pair in every 128-bit lane. Spelled out:
/// GCC 12 reports -Wuninitialized inside _mm512_broadcast_i32x4.
__m512i per_lane(long long hi, long long lo) {
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

}  // namespace

std::uint32_t crc32_fold_vpclmul(const unsigned char* p, std::size_t len,
                                 std::uint32_t state) noexcept {
  const __m512i k2048 = per_lane(0x01322d1430, 0x011542778a);
  const __m512i k512 = per_lane(0x01c6e41596, 0x0154442bd4);

  // The register enters the first 32 bits. A masked broadcast puts it
  // there: GCC 12 reports -Wuninitialized inside _mm512_zextsi128_si512.
  __m512i z0 = _mm512_xor_si512(
      load(p), _mm512_maskz_set1_epi32(0x0001, static_cast<int>(state)));
  __m512i z1 = load(p + 64);
  __m512i z2 = load(p + 128);
  __m512i z3 = load(p + 192);
  p += 256;
  len -= 256;

  while (len >= 256) {
    z0 = fold(z0, k2048, load(p));
    z1 = fold(z1, k2048, load(p + 64));
    z2 = fold(z2, k2048, load(p + 128));
    z3 = fold(z3, k2048, load(p + 192));
    p += 256;
    len -= 256;
  }

  z0 = fold(z0, k512, z1);
  z0 = fold(z0, k512, z2);
  z0 = fold(z0, k512, z3);
  alignas(64) unsigned char lanes[64];
  _mm512_store_si512(lanes, z0);
  return crc32_fold_pclmul_lanes(lanes, p, len);
}

}  // namespace qsv::detail
