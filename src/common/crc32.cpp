#include "common/crc32.hpp"

#include <algorithm>
#include <array>

#include "common/parallel.hpp"
#include "common/types.hpp"

namespace qsv {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

/// a * b mod P over GF(2), both in the reflected order (bit 31 holds x^0).
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 0x80000000u; m != 0; m >>= 1) {
    if ((a & m) != 0) {
      p ^= b;
    }
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;  // b *= x
  }
  return p;
}

/// kBytePow[j] = x^(8 * 2^j) mod P: the shift past 2^j zero bytes.
constexpr std::array<std::uint32_t, 64> make_byte_pows() {
  std::array<std::uint32_t, 64> t{};
  std::uint32_t p = 0x00800000u;  // x^8
  for (std::uint32_t& e : t) {
    e = p;
    p = multmodp(p, p);
  }
  return t;
}

constexpr std::array<std::uint32_t, 64> kBytePow = make_byte_pows();

/// Inputs this long or longer are split across the loop team: 1 MiB, the
/// bytes of kParallelMinAmps amplitudes.
constexpr std::size_t kParallelMinBytes = kParallelMinAmps * kBytesPerAmp;

/// Most blocks one update splits into; a wider team leaves threads idle.
constexpr int kMaxBlocks = 256;

}  // namespace

#if QSV_CRC32_HAVE_PCLMUL
namespace detail {
/// Folds `len` bytes (len >= 64, a multiple of 16) into the CRC register
/// `state` with PCLMULQDQ (crc32_pclmul.cpp, built with -mpclmul -msse4.1).
std::uint32_t crc32_fold_pclmul(const unsigned char* p, std::size_t len,
                                std::uint32_t state) noexcept;
}  // namespace detail

namespace {

/// Whether the CPU can run the fold, checked once per process. Both paths
/// give the same checksum, so nothing but the CPU selects between them.
bool fold_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

}  // namespace
#endif

namespace {

/// Folds `len` bytes at `p` into the CRC register `c` on the calling thread.
std::uint32_t fold(std::uint32_t c, const unsigned char* p,
                   std::size_t len) noexcept {
#if QSV_CRC32_HAVE_PCLMUL
  // The fold takes whole 16-byte blocks and needs at least four of them;
  // the table loop below finishes the tail and takes shorter inputs.
  if (len >= 64 && fold_available()) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = detail::crc32_fold_pclmul(p, bulk, c);
    p += bulk;
    len -= bulk;
  }
#endif
  for (std::size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

}  // namespace

void Crc32::update(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const int blocks =
      len >= kParallelMinBytes ? std::min(loop_width(), kMaxBlocks) : 1;
  if (blocks <= 1) {
    state_ = fold(state_, p, len);
    return;
  }
  // One block per team thread, each a whole number of 16-byte fold steps
  // but the last, which also takes the remainder. Each block is checksummed
  // on its own and the results are joined in order.
  std::array<std::uint32_t, kMaxBlocks> crcs{};
  std::uint32_t* const out = crcs.data();
  const std::size_t step = (len / static_cast<std::size_t>(blocks)) &
                           ~std::size_t{15};
  parallel_for(static_cast<amp_index>(len / kBytesPerAmp), blocks,
               [=](std::int64_t b) {
    const std::size_t first = static_cast<std::size_t>(b) * step;
    const std::size_t last = b + 1 == blocks ? len : first + step;
    out[b] = fold(0xFFFFFFFFu, p + first, last - first) ^ 0xFFFFFFFFu;
  });
  std::uint32_t v = value();
  for (int b = 0; b < blocks; ++b) {
    const std::size_t first = static_cast<std::size_t>(b) * step;
    v = crc32_combine(v, out[b], b + 1 == blocks ? len - first : step);
  }
  state_ = v ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  Crc32 acc;
  acc.update(data, len);
  return acc.value();
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) noexcept {
  std::uint32_t shift = 0x80000000u;  // x^0
  for (std::size_t j = 0; len_b != 0; ++j, len_b >>= 1) {
    if ((len_b & 1) != 0) {
      shift = multmodp(kBytePow[j], shift);
    }
  }
  return multmodp(shift, crc_a) ^ crc_b;
}

}  // namespace qsv
