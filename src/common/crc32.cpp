#include "common/crc32.hpp"

#include <array>

namespace qsv {
namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

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

void Crc32::update(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
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
  state_ = c;
}

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  Crc32 acc;
  acc.update(data, len);
  return acc.value();
}

}  // namespace qsv
