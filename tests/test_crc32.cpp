#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32_fold.hpp"
#include "common/parallel.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition, written
/// independently of both code paths in crc32.cpp.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> data(n);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return data;
}

TEST(Crc32, Ieee8023CheckValue) {
  // The standard check value: CRC-32("123456789") per IEEE 802.3.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, std::strlen(s)), 0xCBF43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
  Crc32 acc;
  EXPECT_EQ(acc.value(), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShotAtEverySplit) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(msg.data(), msg.size());
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Crc32 acc;
    acc.update(msg.data(), split);
    acc.update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(acc.value(), whole) << "split at " << split;
  }
}

TEST(Crc32, ByteAtATimeStreamingMatchesOneShot) {
  std::vector<unsigned char> data(1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>((i * 131) ^ (i >> 3));
  }
  Crc32 acc;
  for (unsigned char b : data) {
    acc.update(&b, 1);
  }
  EXPECT_EQ(acc.value(), crc32(data.data(), data.size()));
}

TEST(Crc32, EverySingleBitFlipChangesTheChecksum) {
  // The property the exchange path relies on: CRC-32 detects all
  // single-bit errors, so an injected in-flight flip can never pass. The
  // 1 KiB + 13 byte buffer puts flips in folded 64-byte blocks and in the
  // table-loop tail.
  for (const std::size_t size : {std::size_t{64}, std::size_t{1024 + 13}}) {
    std::vector<unsigned char> data(size, 0xA5);
    const std::uint32_t clean = crc32(data.data(), data.size());
    for (std::size_t byte = 0; byte < data.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        data[byte] ^= static_cast<unsigned char>(1 << bit);
        EXPECT_NE(crc32(data.data(), data.size()), clean)
            << "flip of byte " << byte << " bit " << bit << " of " << size
            << " undetected";
        data[byte] ^= static_cast<unsigned char>(1 << bit);
      }
    }
  }
}

TEST(Crc32, UpdateWithZeroBytesIsIdentity) {
  Crc32 acc;
  const char* s = "abc";
  acc.update(s, 3);
  const std::uint32_t before = acc.value();
  acc.update(s, 0);
  EXPECT_EQ(acc.value(), before);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-1100 at start offsets 0-15: inputs under 64 bytes, exactly
  // 64, every 1-15 byte tail after the 16-byte folds, and every alignment.
  const std::vector<unsigned char> data = pattern(1100 + 16);
  int mismatches = 0;
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const unsigned char* p = data.data() + offset;
      if (crc32(p, len) != bitwise_crc32(p, len) && ++mismatches <= 5) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Crc32, MatchesBitwiseReferenceWhereTheWideFoldRuns) {
  // Every length from 256 bytes, where the 512-bit fold starts, to 4 KiB:
  // one step and its 16-byte tail blocks, several steps, and every tail
  // after them, at aligned and unaligned starts. The reference register is
  // carried along, so each prefix costs one more byte.
  const std::vector<unsigned char> data = pattern(4096 + 64);
  int mismatches = 0;
  for (const std::size_t offset : {0, 1, 7, 16, 33, 63}) {
    const unsigned char* p = data.data() + offset;
    std::uint32_t reg = 0xFFFFFFFFu;
    for (std::size_t len = 1; len <= 4096; ++len) {
      reg ^= p[len - 1];
      for (int k = 0; k < 8; ++k) {
        reg = (reg >> 1) ^ (0xEDB88320u & (0u - (reg & 1u)));
      }
      if (len >= 256 && crc32(p, len) != (reg ^ 0xFFFFFFFFu) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "offset " << offset << " length " << len;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

#if QSV_CRC32_HAVE_VPCLMUL
TEST(Crc32, WideFoldEqualsTheNarrowFold) {
  // The 512-bit fold against the 128-bit one it finishes with, register for
  // register, from several initial registers, where this CPU runs both.
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("vpclmulqdq") ||
      !__builtin_cpu_supports("avx512f") ||
      !__builtin_cpu_supports("pclmul") ||
      !__builtin_cpu_supports("sse4.1")) {
    GTEST_SKIP() << "this CPU lacks the 512-bit or the 128-bit fold";
  }
  const std::vector<unsigned char> data = pattern(4096 + 64);
  for (const std::size_t offset : {0, 1, 33}) {
    const unsigned char* p = data.data() + offset;
    for (const std::uint32_t state : {0xFFFFFFFFu, 0u, 0x9E3779B9u}) {
      for (std::size_t len = 256; len <= 4096; len += 16) {
        ASSERT_EQ(detail::crc32_fold_vpclmul(p, len, state),
                  detail::crc32_fold_pclmul(p, len, state))
            << "offset " << offset << " length " << len << " register "
            << state;
      }
    }
  }
}
#endif

TEST(Crc32, IncrementalSplitsInsideFoldedBulkAndTail) {
  // A first update ending anywhere (inside a folded block, on a 16-byte
  // boundary, in the tail) leaves the register the second update resumes.
  const std::vector<unsigned char> data = pattern(1100);
  const std::uint32_t want = bitwise_crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 acc;
    acc.update(data.data(), split);
    acc.update(data.data() + split, data.size() - split);
    EXPECT_EQ(acc.value(), want) << "split at " << split;
  }
  // Three pieces, each long enough to take the fold on its own.
  for (const std::size_t a : {64, 65, 79, 100, 127, 128}) {
    for (const std::size_t b : {64, 77, 96, 191, 200}) {
      Crc32 acc;
      acc.update(data.data(), a);
      acc.update(data.data() + a, b);
      acc.update(data.data() + a + b, data.size() - a - b);
      EXPECT_EQ(acc.value(), want) << "pieces " << a << "+" << b;
    }
  }
}

TEST(Crc32, LargeBufferMatchesBitwiseReference) {
  // A message-sized buffer with a 3-byte tail.
  const std::vector<unsigned char> data = pattern((std::size_t{2} << 20) + 3);
  EXPECT_EQ(crc32(data.data(), data.size()),
            bitwise_crc32(data.data(), data.size()));
}

constexpr std::size_t kMiB = std::size_t{1} << 20;

TEST(Crc32, CombineEqualsTheChecksumOfTheConcatenation) {
  // Split points inside the table-only range, on and around the 16- and
  // 64-byte fold boundaries, and around the 1 MiB at which an update is
  // split across the loop team.
  const std::vector<unsigned char> data = pattern(kMiB + 100);
  const std::uint32_t whole = bitwise_crc32(data.data(), data.size());
  for (const std::size_t split :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{63}, std::size_t{64}, kMiB - 1, kMiB,
        kMiB + 1, data.size()}) {
    const std::uint32_t a = bitwise_crc32(data.data(), split);
    const std::uint32_t b =
        bitwise_crc32(data.data() + split, data.size() - split);
    EXPECT_EQ(crc32_combine(a, b, data.size() - split), whole)
        << "split at " << split;
  }
  // Joining onto the empty prefix returns the suffix's checksum, and an
  // empty suffix leaves the prefix's.
  EXPECT_EQ(crc32_combine(0, 0xCBF43926u, 9), 0xCBF43926u);
  EXPECT_EQ(crc32_combine(0xCBF43926u, 0, 0), 0xCBF43926u);
}

TEST(Crc32, EveryLoopWidthMatchesTheBitwiseReference) {
  // Around the 1 MiB split threshold and past it with a ragged tail, at
  // loop widths 1-4: one block per team thread, joined in order, must give
  // the same integer as the unsplit definition. Without OpenMP every width
  // runs the one-block path, which must agree too.
  const test::LoopWidthGuard restore;
  const std::vector<unsigned char> data = pattern(2 * kMiB + 13);
  for (const std::size_t len :
       {kMiB - 1, kMiB, kMiB + 3, 2 * kMiB, 2 * kMiB + 13}) {
    const std::uint32_t want = bitwise_crc32(data.data(), len);
    for (const int width : {1, 2, 3, 4}) {
      set_loop_width(width);
      EXPECT_EQ(crc32(data.data(), len), want)
          << "length " << len << " at width " << width;
      Crc32 acc;
      acc.update(data.data(), len);
      EXPECT_EQ(acc.value(), want)
          << "length " << len << " at width " << width;
    }
  }
}

TEST(Crc32, IncrementalUpdatesAcrossTheSplitThreshold) {
  // A running register carried into a split update, a split update
  // followed by short ones, and pieces on either side of 1 MiB: the split
  // path must resume from, and leave, the register the serial fold would.
  const test::LoopWidthGuard restore;
  const std::vector<unsigned char> data = pattern(2 * kMiB + 13);
  const std::uint32_t want = bitwise_crc32(data.data(), data.size());
  const std::vector<std::vector<std::size_t>> cuts = {
      {kMiB - 1},             // short first piece, split second piece
      {kMiB},                 // both pieces split
      {7, kMiB + 7},          // ragged prefix, split middle, split tail
      {3, 64 + 3, 2 * kMiB},  // split piece between two short ones
      {2 * kMiB + 12},        // split first piece, one-byte tail
  };
  for (const int width : {1, 3, 4}) {
    set_loop_width(width);
    for (const std::vector<std::size_t>& at : cuts) {
      Crc32 acc;
      std::size_t from = 0;
      for (const std::size_t cut : at) {
        acc.update(data.data() + from, cut - from);
        from = cut;
      }
      acc.update(data.data() + from, data.size() - from);
      EXPECT_EQ(acc.value(), want)
          << "width " << width << ", first cut at " << at.front();
    }
  }
}

}  // namespace
}  // namespace qsv
