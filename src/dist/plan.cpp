#include "dist/plan.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace qsv {
namespace {

/// Fraction of ranks whose id has all `mask` bits set: 2^-popcount(mask).
double mask_fraction(std::uint64_t mask) {
  return 1.0 / static_cast<double>(std::uint64_t{1} << std::popcount(mask));
}

}  // namespace

amp_index chunk_amps(std::size_t max_message_bytes) {
  QSV_REQUIRE(max_message_bytes >= kBytesPerAmp,
              "message cap below one amplitude");
  return max_message_bytes / kBytesPerAmp;
}

int messages_for(amp_index amps, std::size_t max_message_bytes) {
  const amp_index chunk = chunk_amps(max_message_bytes);
  return static_cast<int>((amps + chunk - 1) / chunk);
}

bool OpPlan::sends(rank_t r) const {
  const auto id = static_cast<std::uint64_t>(r);
  const std::uint64_t target_bits = id & rank_xor_mask;
  return combine != Combine::kNone && bits::all_set(id, high_mask) &&
         (combine != Combine::kSwapTwoHigh ||
          (target_bits != 0 && target_bits != rank_xor_mask));
}

OpPlan plan_gate(const Gate& g, int num_qubits, int local_qubits,
                 const DistOptions& opts) {
  QSV_REQUIRE(local_qubits >= 1 && local_qubits <= num_qubits,
              "invalid decomposition");
  const int L = local_qubits;

  OpPlan p;
  p.locality = classify_gate(g, L);

  // High control bits gate participation — except for the fused phase
  // layer, where each control contributes an *independent* angle, so a rank
  // missing one control bit still phases amplitudes via the others.
  if (g.kind != GateKind::kFusedPhase) {
    for (qubit_t c : g.controls) {
      if (c >= L) {
        p.high_mask = bits::set_bit(p.high_mask, c - L);
      }
    }
  }

  // Lowest local target (used for the NUMA penalty).
  for (qubit_t t : g.targets) {
    if (t < L && (p.local_target < 0 || t < p.local_target)) {
      p.local_target = t;
    }
  }

  if (p.locality != GateLocality::kDistributed) {
    // Diagonal gates whose target sits in the rank bits only touch slices
    // with that bit set (kFusedPhase keeps scanning: its target may combine
    // with per-control angles, handled inside the kernel, but a high target
    // bit of 0 still means an untouched slice).
    // kRz is the exception: it phases *both* target halves, so every rank
    // works regardless of where the target bit lives.
    if (g.is_diagonal() && g.kind != GateKind::kRz) {
      for (qubit_t t : g.targets) {
        if (t >= L) {
          p.high_mask = bits::set_bit(p.high_mask, t - L);
        }
      }
    }
    p.participating_fraction = mask_fraction(p.high_mask);
    return p;
  }

  // Distributed gate.
  const CommFootprint f = comm_footprint(g, num_qubits, L);
  p.rank_xor_mask = f.rank_xor_mask;
  p.participating_fraction = f.participating_fraction * mask_fraction(p.high_mask);
  p.exchange_bytes = f.bytes_full;

  if (g.kind == GateKind::kSwap) {
    const qubit_t a = g.targets[0];
    const qubit_t b = g.targets[1];
    p.high_bit = b - L;  // two-high: informational, the xor mask has both bits
    if (a >= L) {
      p.combine = OpPlan::Combine::kSwapTwoHigh;
    } else {
      p.combine = OpPlan::Combine::kSwapOneHigh;
      if (opts.half_exchange_swaps) {
        p.exchange_bytes = f.bytes_half;
        p.half_exchange = true;
      }
    }
  } else {
    p.combine = OpPlan::Combine::kMatrix1;
    p.high_bit = g.targets[0] - L;
  }

  // Both exchange shapes stream whole amplitudes.
  const amp_index payload_amps = p.exchange_bytes / kBytesPerAmp;
  p.messages = messages_for(payload_amps, opts.max_message_bytes);
  p.max_message_bytes =
      std::min(payload_amps, chunk_amps(opts.max_message_bytes)) *
      kBytesPerAmp;
  // Idle ranks: unsatisfied high controls, and the half of a two-high
  // SWAP's ranks whose two target bits agree.
  const int idle_shift = std::popcount(p.high_mask) +
                         (p.combine == OpPlan::Combine::kSwapTwoHigh ? 1 : 0);
  p.sending_ranks = (std::uint64_t{1} << (num_qubits - L)) >> idle_shift;
  return p;
}

ExecEvent gate_event(GateKind gate, const OpPlan& plan, int local_qubits,
                     const DistOptions& opts) {
  ExecEvent e;
  e.kind = ExecEvent::Kind::kLocalGate;
  e.gate = gate;
  e.locality = plan.locality;
  e.local_amps = amp_index{1} << local_qubits;
  e.local_target = plan.local_target;
  e.participating_fraction = plan.participating_fraction;
  if (plan.locality == GateLocality::kDistributed) {
    e.kind = ExecEvent::Kind::kExchange;
    e.bytes_per_rank = plan.exchange_bytes;
    e.messages_per_rank = plan.messages;
    e.policy = opts.policy;
    e.half_exchange = plan.half_exchange;
    e.overlap_chunks =
        opts.policy == CommPolicy::kOverlapped ? plan.messages : 0;
  }
  return e;
}

ExecEvent sweep_event(GateKind first, std::size_t count, int local_qubits,
                      const DistOptions& opts) {
  ExecEvent e;
  e.kind = ExecEvent::Kind::kSweep;
  e.gate = first;
  e.local_amps = amp_index{1} << local_qubits;
  e.sweep_gates = static_cast<int>(count);
  e.sweep_tiles =
      e.local_amps >> std::min(opts.sweep.tile_qubits, local_qubits);
  return e;
}

ReshardPlan plan_reshard(int num_qubits, int local_qubits, int new_ranks,
                         rank_t rebuilt, std::size_t max_message_bytes) {
  QSV_REQUIRE(local_qubits >= 1 && local_qubits <= num_qubits,
              "invalid decomposition");
  ReshardPlan p;
  p.old_ranks = 1 << (num_qubits - local_qubits);
  p.new_ranks = new_ranks;
  const bool grow = new_ranks == 2 * p.old_ranks;
  QSV_REQUIRE(grow || (p.old_ranks >= 2 && new_ranks == p.old_ranks / 2),
              "a re-shard halves or doubles the width (have " +
                  std::to_string(p.old_ranks) + " ranks, asked for " +
                  std::to_string(new_ranks) + ")");
  QSV_REQUIRE(!grow || local_qubits >= 2,
              "cannot grow: slices would drop below two amplitudes");
  const int wide = std::max(p.old_ranks, new_ranks);
  QSV_REQUIRE(rebuilt == -1 || (!grow && rebuilt >= 0 && rebuilt < wide),
              "only a shrink merges a rebuilt slice, and it must name a rank");
  const amp_index wide_amps = amp_index{1}
                              << (grow ? local_qubits - 1 : local_qubits);
  p.bytes_per_move = wide_amps * kBytesPerAmp;
  p.messages_per_move = messages_for(wide_amps, max_message_bytes);
  p.moving_pairs = wide / 2 - (rebuilt >= 0 ? 1 : 0);
  p.rebuild_io_bytes = rebuilt >= 0 ? p.bytes_per_move : 0;
  return p;
}

}  // namespace qsv
