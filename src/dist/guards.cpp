#include "dist/guards.hpp"

#include <cmath>
#include <string>

namespace qsv {
namespace {

/// Allowed |‖ψ‖² - 1| drift at a norm check.
constexpr double kNormTolerance = 1e-9;

}  // namespace

template <class S>
void StateGuard<S>::emit_event(bool norm, bool crc) const {
  ExecListener* listener = sv_.listener();
  if (listener == nullptr) {
    return;
  }
  const std::uint64_t slice_bytes =
      static_cast<std::uint64_t>(sv_.local_amps()) * kBytesPerAmp;
  ExecEvent e;
  e.kind = ExecEvent::Kind::kGuard;
  e.local_amps = sv_.local_amps();
  if (norm) {
    e.guard_bytes_per_rank = slice_bytes;
    // Square and accumulate each of re/im: 2 multiplies + 2 adds per
    // amplitude.
    e.guard_flops_per_rank = 4 * static_cast<std::uint64_t>(sv_.local_amps());
    e.guard_sync = true;  // the partial sums meet in an allreduce
  }
  if (crc) {
    e.guard_crc_bytes_per_rank = slice_bytes;
  }
  listener->on_event(e);
}

template <class S>
void StateGuard<S>::check(std::uint64_t gate_index) {
  ++stats_.checks;
  // The check's cost is paid whether or not it passes. Slice CRCs are a
  // checkpoint-signature feature (capture_signature/verify_restore), not a
  // cadence one: the state legitimately changes every gate, so there is
  // nothing for a mid-flight CRC to compare against — and refreshing the
  // signature here would desync it from the checkpoint on disk.
  emit_event(/*norm=*/true, /*crc=*/false);
  const real_t norm = sv_.norm_sq();
  if (std::abs(norm - 1.0) > kNormTolerance) {
    ++stats_.violations;
    throw GuardViolation(
        "norm invariant violated after gate " + std::to_string(gate_index) +
            ": |psi|^2 = " + std::to_string(norm) + " drifted more than " +
            std::to_string(kNormTolerance) + " from 1",
        /*rank=*/-1, gate_index);
  }
}

template <class S>
std::vector<std::uint32_t> StateGuard<S>::signature() const {
  std::vector<std::uint32_t> sig(static_cast<std::size_t>(sv_.num_ranks()));
  for (rank_t r = 0; r < sv_.num_ranks(); ++r) {
    sig[static_cast<std::size_t>(r)] = sv_.slice_crc(r);
  }
  return sig;
}

template <class S>
void StateGuard<S>::capture_signature() {
  if (!opts_.slice_crc) {
    return;
  }
  emit_event(/*norm=*/false, /*crc=*/true);
  signature_ = signature();
}

template <class S>
void StateGuard<S>::verify_restore(std::uint64_t gate_index) {
  if (!opts_.slice_crc || signature_.empty()) {
    return;
  }
  ++stats_.checks;
  emit_event(/*norm=*/false, /*crc=*/true);
  for (rank_t r = 0; r < sv_.num_ranks(); ++r) {
    const std::uint32_t got = sv_.slice_crc(r);
    const std::uint32_t want = signature_[static_cast<std::size_t>(r)];
    if (got != want) {
      ++stats_.violations;
      throw GuardViolation(
          "restored slice of rank " + std::to_string(r) +
              " fails its checkpoint signature at gate " +
              std::to_string(gate_index) + " (CRC-32 " + std::to_string(got) +
              ", expected " + std::to_string(want) + ")",
          r, gate_index);
    }
  }
}

template class StateGuard<SoaStorage>;

}  // namespace qsv
