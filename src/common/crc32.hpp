// CRC-32 (IEEE 802.3, polynomial 0xEDB88320): the checksum every exchange
// message carries from sender to receiver, and the one behind snapshot
// payloads and the `state crc32` digest. Incremental interface so large
// payloads can be checksummed while they stream to disk. An update of
// 1 MiB or more is split into one block per thread of the calling thread's
// loop team (common/parallel.hpp), and the block checksums are joined with
// crc32_combine, so the value is the same integer at every loop width.
// Each block takes the widest fold the CPU runs: 512-bit VPCLMULQDQ from
// 256 bytes, 128-bit PCLMULQDQ from 64, then a table loop for the tail;
// every path gives the same integer, so only CPUID picks one.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qsv {

/// Incremental CRC-32 accumulator.
class Crc32 {
 public:
  /// Folds `len` bytes at `data` into the running checksum.
  void update(const void* data, std::size_t len) noexcept;

  /// Final checksum over everything folded in so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a buffer.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len) noexcept;

/// CRC-32 of the concatenation A || B from crc32(A), crc32(B) and B's
/// length: crc_a times x^(8 len_b) mod P in GF(2), plus crc_b, as zlib's
/// crc32_combine computes it.
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a,
                                          std::uint32_t crc_b,
                                          std::size_t len_b) noexcept;

}  // namespace qsv
