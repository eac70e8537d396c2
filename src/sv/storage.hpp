// Amplitude storage: QuEST's two separate real/imaginary arrays (structure
// of arrays), the one layout every kernel and both engines run on.
//
// The paper's future-work list proposes an interleaved complex layout "to
// improve data locality" (§4). One was built and measured here: its kernels
// stayed scalar (the vector backends work on split re/im lanes) and it ran
// 3.6-5.5x slower than this layout at every size measured, so it was
// removed (EXPERIMENTS.md).
#pragma once

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace qsv {

/// Separate real/imaginary arrays (QuEST's layout).
class SoaStorage {
 public:
  SoaStorage() = default;
  explicit SoaStorage(amp_index n) : re_(n), im_(n) {}

  [[nodiscard]] amp_index size() const { return re_.size(); }

  [[nodiscard]] cplx get(amp_index i) const { return {re_[i], im_[i]}; }
  void set(amp_index i, cplx v) {
    re_[i] = v.real();
    im_[i] = v.imag();
  }

  /// Direct component access for the hot kernels.
  [[nodiscard]] real_t* re() { return re_.data(); }
  [[nodiscard]] real_t* im() { return im_.data(); }
  [[nodiscard]] const real_t* re() const { return re_.data(); }
  [[nodiscard]] const real_t* im() const { return im_.data(); }

  void fill_zero() {
    std::memset(re_.data(), 0, re_.size() * sizeof(real_t));
    std::memset(im_.data(), 0, im_.size() * sizeof(real_t));
  }

  /// Serialises amplitudes [first, first+count) into a byte buffer
  /// (re then im, contiguous), as a message payload. Returns bytes written.
  std::size_t pack(amp_index first, amp_index count, std::byte* out) const {
    QSV_REQUIRE(first + count <= size(), "pack range out of bounds");
    std::memcpy(out, re_.data() + first, count * sizeof(real_t));
    std::memcpy(out + count * sizeof(real_t), im_.data() + first,
                count * sizeof(real_t));
    return count * kBytesPerAmp;
  }

  /// Inverse of pack.
  void unpack(amp_index first, amp_index count, const std::byte* in) {
    QSV_REQUIRE(first + count <= size(), "unpack range out of bounds");
    std::memcpy(re_.data() + first, in, count * sizeof(real_t));
    std::memcpy(im_.data() + first, in + count * sizeof(real_t),
                count * sizeof(real_t));
  }

 private:
  std::vector<real_t> re_;
  std::vector<real_t> im_;
};

}  // namespace qsv
