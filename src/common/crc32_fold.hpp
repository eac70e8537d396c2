// Internal: the carry-less-multiply CRC-32 folds that crc32.cpp dispatches
// to after a CPUID check. Each lives in a translation unit of its own,
// compiled with its ISA flags (src/common/CMakeLists.txt); these
// declarations are all that baseline code sees of them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qsv::detail {

/// Folds `len` bytes (len >= 64, a multiple of 16) into the CRC register
/// `state` with PCLMULQDQ on 128-bit lanes (crc32_pclmul.cpp, built with
/// -mpclmul -msse4.1).
std::uint32_t crc32_fold_pclmul(const unsigned char* p, std::size_t len,
                                std::uint32_t state) noexcept;

/// The same fold resumed from a folded 64-byte state `lanes` (its four
/// 128-bit lanes, earliest first, with the register already in them),
/// followed by `len` more bytes (a multiple of 16, possibly 0).
std::uint32_t crc32_fold_pclmul_lanes(const unsigned char* lanes,
                                      const unsigned char* p,
                                      std::size_t len) noexcept;

/// Folds `len` bytes (len >= 256, a multiple of 16) into `state` with
/// VPCLMULQDQ on 512-bit registers, 256 bytes a step, and hands the last
/// 64 folded bytes to crc32_fold_pclmul_lanes (crc32_vpclmul.cpp, built
/// with -mavx512f -mvpclmulqdq).
std::uint32_t crc32_fold_vpclmul(const unsigned char* p, std::size_t len,
                                 std::uint32_t state) noexcept;

}  // namespace qsv::detail
