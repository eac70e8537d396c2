// Amplitude storage: QuEST's two separate real/imaginary arrays (structure
// of arrays), the one layout every kernel and both engines run on.
//
// The paper's future-work list proposes an interleaved complex layout "to
// improve data locality" (§4). One was built and measured here: its kernels
// stayed scalar (the vector backends work on split re/im lanes) and it ran
// 3.6-5.5x slower than this layout at every size measured, so it was
// removed (EXPERIMENTS.md).
#pragma once

#include <vector>

#include "common/default_init_allocator.hpp"
#include "common/types.hpp"

namespace qsv {

/// Separate real/imaginary arrays (QuEST's layout). The passes over a
/// whole range (the zero fill, pack and unpack) run across the calling
/// thread's loop team once they cover kParallelMinAmps amplitudes
/// (common/parallel.hpp), and on the calling thread below that.
class SoaStorage {
 public:
  SoaStorage() = default;
  /// `n` zero amplitudes, first touched by the zero fill's team.
  explicit SoaStorage(amp_index n);

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

  void fill_zero();

  /// Serialises amplitudes [first, first+count) into a byte buffer
  /// (re then im, contiguous), as a message payload. Returns bytes written.
  std::size_t pack(amp_index first, amp_index count, std::byte* out) const;

  /// Inverse of pack.
  void unpack(amp_index first, amp_index count, const std::byte* in);

 private:
  using Array = std::vector<real_t, DefaultInitAllocator<real_t>>;
  Array re_;
  Array im_;
};

}  // namespace qsv
