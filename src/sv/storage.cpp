#include "sv/storage.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qsv {
namespace {

/// Amplitudes per block of the zero fill: 32 KiB of each array.
constexpr amp_index kZeroBlock = amp_index{1} << 12;

}  // namespace

SoaStorage::SoaStorage(amp_index n) : re_(n), im_(n) { fill_zero(); }

void SoaStorage::fill_zero() {
  const amp_index n = size();
  real_t* const re = re_.data();
  real_t* const im = im_.data();
  parallel_for(n, static_cast<std::int64_t>((n + kZeroBlock - 1) / kZeroBlock),
               [=](std::int64_t b) {
    const amp_index first = static_cast<amp_index>(b) * kZeroBlock;
    const amp_index count = std::min(kZeroBlock, n - first);
    std::memset(re + first, 0, count * sizeof(real_t));
    std::memset(im + first, 0, count * sizeof(real_t));
  });
}

std::size_t SoaStorage::pack(amp_index first, amp_index count,
                             std::byte* out) const {
  QSV_REQUIRE(first + count <= size(), "pack range out of bounds");
  const std::size_t half = count * sizeof(real_t);
  parallel_copy(count, {{out, re_.data() + first, half},
                        {out + half, im_.data() + first, half}});
  return count * kBytesPerAmp;
}

void SoaStorage::unpack(amp_index first, amp_index count,
                        const std::byte* in) {
  QSV_REQUIRE(first + count <= size(), "unpack range out of bounds");
  const std::size_t half = count * sizeof(real_t);
  parallel_copy(count, {{re_.data() + first, in, half},
                        {im_.data() + first, in + half, half}});
}

}  // namespace qsv
