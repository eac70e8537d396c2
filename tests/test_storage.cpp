#include "sv/storage.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

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

}  // namespace
}  // namespace qsv
