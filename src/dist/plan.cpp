#include "dist/plan.hpp"

#include <algorithm>
#include <bit>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace qsv {
namespace {

/// Fraction of ranks whose id has all `mask` bits set: 2^-popcount(mask).
double mask_fraction(std::uint64_t mask) {
  return 1.0 / static_cast<double>(std::uint64_t{1} << std::popcount(mask));
}

/// Messages that carry `amps` amplitudes in chunk_amps chunks.
int messages_for(amp_index amps, std::size_t max_message_bytes) {
  const amp_index chunk = chunk_amps(max_message_bytes);
  return static_cast<int>((amps + chunk - 1) / chunk);
}

}  // namespace

amp_index chunk_amps(std::size_t max_message_bytes) {
  QSV_REQUIRE(max_message_bytes >= kBytesPerAmp,
              "message cap below one amplitude");
  return max_message_bytes / kBytesPerAmp;
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

ReshardPlan plan_reshard(int num_qubits, int local_qubits, rank_t dead_rank,
                         std::size_t max_message_bytes) {
  const int old_ranks = 1 << (num_qubits - local_qubits);
  QSV_REQUIRE(old_ranks >= 2, "cannot re-shard a single-rank run");
  QSV_REQUIRE(dead_rank >= 0 && dead_rank < old_ranks,
              "re-shard dead rank out of range");
  ReshardPlan p;
  p.old_ranks = old_ranks;
  p.new_ranks = old_ranks / 2;
  p.dead_rank = dead_rank;
  p.slice_amps = amp_index{1} << local_qubits;
  p.bytes_per_move = p.slice_amps * kBytesPerAmp;
  p.messages_per_move = messages_for(p.slice_amps, max_message_bytes);
  p.moving_pairs = p.new_ranks - 1;
  p.total_bytes = static_cast<std::uint64_t>(p.moving_pairs) * p.bytes_per_move;
  p.rebuild_io_bytes = p.bytes_per_move;
  return p;
}

GrowBackPlan plan_grow_back(int num_qubits, int local_qubits,
                            std::size_t max_message_bytes) {
  QSV_REQUIRE(local_qubits >= 2 && local_qubits <= num_qubits,
              "cannot grow back: slices would drop below two amplitudes");
  GrowBackPlan p;
  p.old_ranks = 1 << (num_qubits - local_qubits);
  p.new_ranks = p.old_ranks * 2;
  p.slice_amps = amp_index{1} << (local_qubits - 1);
  p.bytes_per_move = p.slice_amps * kBytesPerAmp;
  p.messages_per_move = messages_for(p.slice_amps, max_message_bytes);
  p.moving_pairs = p.old_ranks;
  p.total_bytes = static_cast<std::uint64_t>(p.moving_pairs) * p.bytes_per_move;
  return p;
}

}  // namespace qsv
