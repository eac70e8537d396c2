#include "sv/sweep.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sv/kernels.hpp"
#include "sv/simd/simd.hpp"
#include "sv/storage.hpp"

namespace qsv::kern {
namespace {

/// Window over 2^t consecutive amplitudes of a slice, satisfying the same
/// slice interface as the storage it views. Inside the window the qubits at
/// or above t act exactly like rank bits, so apply_gate_slice handles high
/// controls and diagonal high operands unchanged.
///
/// The view forwards the storage's raw arrays shifted by the tile offset: a
/// tile is always a contiguous window, so the dense kernels run on its
/// spans exactly as on a whole slice.
template <simd::SoaSpanAccess S>
class TileView {
 public:
  TileView(S& s, amp_index offset, amp_index size)
      : s_(&s), offset_(offset), size_(size) {}

  [[nodiscard]] amp_index size() const { return size_; }
  [[nodiscard]] cplx get(amp_index i) const { return s_->get(offset_ + i); }
  void set(amp_index i, cplx v) { s_->set(offset_ + i, v); }

  [[nodiscard]] real_t* re() { return s_->re() + offset_; }
  [[nodiscard]] real_t* im() { return s_->im() + offset_; }

 private:
  S* s_;
  amp_index offset_;
  amp_index size_;
};

}  // namespace

template <class S>
void apply_sweep_run(std::span<S> slices, amp_index first_rank,
                     const Gate* gates, std::size_t count, int tile_qubits,
                     int local_qubits) {
  const int t = std::min(tile_qubits, local_qubits);
  QSV_REQUIRE(t >= 1, "tiles hold at least 2 amplitudes");
  const amp_index slice_amps = amp_index{1} << local_qubits;
  for (const S& s : slices) {
    QSV_REQUIRE(s.size() == slice_amps,
                "slice size does not match local_qubits");
  }
  for (std::size_t gi = 0; gi < count; ++gi) {
    QSV_REQUIRE(is_sweepable(gates[gi], t),
                "non-sweepable gate in a sweep run: " + gates[gi].str());
  }

  const amp_index tile_amps = amp_index{1} << t;
  const auto tiles = static_cast<std::int64_t>(slice_amps >> t);
  S* const first = slices.data();
  parallel_for(slices.size() * slice_amps,
               static_cast<std::int64_t>(slices.size()) * tiles,
               [=](std::int64_t k) {
    const auto tile = static_cast<amp_index>(k % tiles);
    const auto slice = static_cast<amp_index>(k / tiles);
    TileView<S> view(first[slice], tile << t, tile_amps);
    // Global index bit q (q >= t) is bit (q - t) of this combined id, so
    // the tile is a virtual rank of the decomposition at L = t.
    const amp_index high_bits =
        ((first_rank + slice) << (local_qubits - t)) | tile;
    for (std::size_t gi = 0; gi < count; ++gi) {
      apply_gate_slice(view, gates[gi], t, high_bits);
    }
  });
}

template void apply_sweep_run<SoaStorage>(std::span<SoaStorage>, amp_index,
                                          const Gate*, std::size_t, int,
                                          int);

}  // namespace qsv::kern
