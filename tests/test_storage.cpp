#include "sv/storage.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

template <class S>
class StorageTyped : public testing::Test {};

using Storages = testing::Types<SoaStorage>;
TYPED_TEST_SUITE(StorageTyped, Storages);

TYPED_TEST(StorageTyped, GetSetRoundTrip) {
  TypeParam s(16);
  EXPECT_EQ(s.size(), 16u);
  s.set(5, cplx{1.5, -2.5});
  EXPECT_EQ(s.get(5), (cplx{1.5, -2.5}));
  EXPECT_EQ(s.get(4), (cplx{0, 0}));
}

TYPED_TEST(StorageTyped, FillZero) {
  TypeParam s(8);
  for (amp_index i = 0; i < 8; ++i) {
    s.set(i, cplx{1, 1});
  }
  s.fill_zero();
  for (amp_index i = 0; i < 8; ++i) {
    EXPECT_EQ(s.get(i), (cplx{0, 0}));
  }
}

TYPED_TEST(StorageTyped, PackUnpackContiguousRange) {
  TypeParam src(16);
  Rng rng(1);
  for (amp_index i = 0; i < 16; ++i) {
    src.set(i, cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  std::vector<std::byte> buf(6 * kBytesPerAmp);
  const std::size_t n = src.pack(4, 6, buf.data());
  EXPECT_EQ(n, 6 * kBytesPerAmp);

  TypeParam dst(16);
  dst.unpack(4, 6, buf.data());
  for (amp_index i = 0; i < 16; ++i) {
    if (i >= 4 && i < 10) {
      EXPECT_EQ(dst.get(i), src.get(i)) << i;
    } else {
      EXPECT_EQ(dst.get(i), (cplx{0, 0})) << i;
    }
  }
}

TYPED_TEST(StorageTyped, PackRangeChecks) {
  TypeParam s(8);
  std::vector<std::byte> buf(8 * kBytesPerAmp);
  EXPECT_THROW((void)s.pack(4, 5, buf.data()), Error);
  EXPECT_THROW(s.unpack(8, 1, buf.data()), Error);
  EXPECT_NO_THROW((void)s.pack(0, 8, buf.data()));
}

TEST(Storage, SoaExposesComponentArrays) {
  SoaStorage s(4);
  s.set(2, cplx{3, 4});
  EXPECT_DOUBLE_EQ(s.re()[2], 3);
  EXPECT_DOUBLE_EQ(s.im()[2], 4);
  s.re()[1] = 7;
  EXPECT_EQ(s.get(1), (cplx{7, 0}));
}

/// Counts the amplitudes of `s` that are not exactly zero.
amp_index nonzero_amps(const SoaStorage& s) {
  amp_index n = 0;
  for (amp_index i = 0; i < s.size(); ++i) {
    n += s.re()[i] != 0 || s.im()[i] != 0 ? 1 : 0;
  }
  return n;
}

TEST(Storage, PackUnpackKeepTheSplitLayoutAtEveryLoopWidth) {
  // Counts on both sides of the 2^16-amplitude team cutoff and past it
  // with ragged ends, from an odd first amplitude, at widths 1, 3 and 4:
  // the message is the re run then the im run, byte for byte, however the
  // team splits the copy into blocks.
  const test::LoopWidthGuard restore;
  constexpr amp_index kFirst = 7;
  for (const amp_index count :
       {(amp_index{1} << 16) - 1, amp_index{1} << 16,
        (amp_index{1} << 16) + 3, (amp_index{1} << 17) + 5}) {
    SoaStorage src(kFirst + count + 9);
    for (amp_index i = 0; i < src.size(); ++i) {
      src.set(i, cplx{static_cast<real_t>(i) + 0.25,
                      -static_cast<real_t>(i) - 0.5});
    }
    const std::size_t half = count * sizeof(real_t);
    for (const int width : {1, 3, 4}) {
      SCOPED_TRACE(testing::Message() << count << " amplitudes at width "
                                      << width);
      set_loop_width(width);
      std::vector<std::byte> msg(count * kBytesPerAmp, std::byte{0xEE});
      EXPECT_EQ(src.pack(kFirst, count, msg.data()), msg.size());
      EXPECT_EQ(std::memcmp(msg.data(), src.re() + kFirst, half), 0);
      EXPECT_EQ(std::memcmp(msg.data() + half, src.im() + kFirst, half), 0);

      SoaStorage dst(src.size());
      dst.unpack(kFirst, count, msg.data());
      EXPECT_EQ(std::memcmp(dst.re() + kFirst, src.re() + kFirst, half), 0);
      EXPECT_EQ(std::memcmp(dst.im() + kFirst, src.im() + kFirst, half), 0);
      // Nothing outside [first, first + count) is written.
      EXPECT_EQ(nonzero_amps(dst), count);
    }
  }
}

TEST(Storage, NewStorageReadsZeroAtEveryLoopWidth) {
  // The zero fill is the first touch, so a fresh storage must read zero
  // even where the allocator hands back memory a freed storage dirtied.
  const test::LoopWidthGuard restore;
  for (const amp_index n :
       {(amp_index{1} << 16) - 1, (amp_index{1} << 16) + 1}) {
    for (const int width : {1, 4}) {
      SCOPED_TRACE(testing::Message() << n << " amplitudes at width "
                                      << width);
      set_loop_width(width);
      EXPECT_EQ(nonzero_amps(SoaStorage(n)), 0u);
      for (int round = 0; round < 3; ++round) {
        {
          SoaStorage dirty(n);
          for (amp_index i = 0; i < n; ++i) {
            dirty.set(i, cplx{1.5, -2.5});
          }
        }
        EXPECT_EQ(nonzero_amps(SoaStorage(n)), 0u) << "round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace qsv
