// The one schedule both engines follow: the decomposition walk, the gate
// plan, the message chunking and the events a gate emits. The functional
// engine executes it and the trace engine only records it, so their event
// streams and traffic counters cannot diverge.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/gate.hpp"
#include "circuit/locality.hpp"
#include "common/types.hpp"
#include "dist/events.hpp"
#include "dist/options.hpp"

namespace qsv {

/// Whole amplitudes per message under a `max_message_bytes` cap, which must
/// hold at least one amplitude. Exchanges, re-shard moves and the threaded
/// engine's mailbox sizing all chunk by this (as QuEST does).
[[nodiscard]] amp_index chunk_amps(std::size_t max_message_bytes);

/// Messages that carry `amps` amplitudes in chunk_amps chunks: the paper's
/// 32 messages for a 64 GiB slice under ARCHER2's 2 GiB cap.
[[nodiscard]] int messages_for(amp_index amps, std::size_t max_message_bytes);

/// Fully resolved execution plan for one gate at one decomposition.
struct OpPlan {
  GateLocality locality{};

  /// Rank bits (mask within the rank id) that must all be 1 for a rank to
  /// participate. Derived from control qubits at or above L; for diagonal
  /// gates the high part of the target also lands here (slices whose target
  /// bit is 0 are untouched by a phase).
  std::uint64_t high_mask = 0;

  /// Fraction of ranks doing work (see ExecEvent).
  double participating_fraction = 1.0;

  /// Lowest local target (-1 when no target is below L).
  int local_target = -1;

  // --- distributed gates only ---
  enum class Combine {
    kNone,
    kMatrix1,      // distributed single-target gate
    kSwapOneHigh,  // SWAP, one target local
    kSwapTwoHigh,  // SWAP, both targets in rank bits
  };
  Combine combine = Combine::kNone;

  /// Peer = rank XOR this mask.
  std::uint64_t rank_xor_mask = 0;

  /// Rank-bit position of the distributed target (kMatrix1/kSwapOneHigh).
  int high_bit = -1;

  /// Payload bytes per participating rank, after the half-exchange decision.
  std::uint64_t exchange_bytes = 0;

  /// Messages per participating rank: the payload in chunk_amps chunks.
  int messages = 0;

  /// Payload bytes of the largest of those messages.
  std::uint64_t max_message_bytes = 0;

  /// Ranks for which sends() is true.
  std::uint64_t sending_ranks = 0;

  bool half_exchange = false;

  /// True when rank `r` exchanges with peer(r) for this gate. Ranks whose
  /// high controls are unsatisfied sit out, and so do the ranks of a
  /// two-high SWAP whose two target bits agree. Both pair members always
  /// agree: high_mask and rank_xor_mask are disjoint.
  [[nodiscard]] bool sends(rank_t r) const;
  [[nodiscard]] rank_t peer(rank_t r) const {
    return static_cast<rank_t>(static_cast<std::uint64_t>(r) ^ rank_xor_mask);
  }
};

/// Builds the plan for `g` on an n-qubit register split over 2^(n-L) ranks
/// holding 2^L amplitudes each. L == n means a single rank (nothing is ever
/// distributed).
[[nodiscard]] OpPlan plan_gate(const Gate& g, int num_qubits, int local_qubits,
                               const DistOptions& opts);

/// The gate walk both engines run: decomposes `g` for 2^L-amplitude slices
/// (expand_for_decomposition, recursively) and calls fn(leaf, plan) for
/// each natively executable leaf gate in order.
template <class Fn>
void for_each_planned(const Gate& g, int num_qubits, int local_qubits,
                      const DistOptions& opts, Fn&& fn) {
  const std::vector<Gate> expansion = expand_for_decomposition(g, local_qubits);
  if (expansion.empty()) {
    fn(g, plan_gate(g, num_qubits, local_qubits, opts));
    return;
  }
  for (const Gate& sub : expansion) {
    for_each_planned(sub, num_qubits, local_qubits, opts, fn);
  }
}

/// The event both engines emit for one planned leaf gate: kLocalGate, or
/// kExchange carrying the plan's traffic. The functional engine adds its
/// NUMA ratio and fault charges.
[[nodiscard]] ExecEvent gate_event(GateKind gate, const OpPlan& plan,
                                   int local_qubits, const DistOptions& opts);

/// The kSweep announcement of one cache-tiled run of `count` local gates,
/// the first of kind `first`.
[[nodiscard]] ExecEvent sweep_event(GateKind first, std::size_t count,
                                    int local_qubits, const DistOptions& opts);

/// A width change between 2^k and 2^(k-1) ranks, in either direction.
/// Because the top qubits select the rank, narrow rank n's slice is wide
/// rank 2n's slice followed by wide rank 2n+1's: a shrink merges each pair
/// and a grow splits it. The low half stays on its host; the high half
/// crosses the wire between wide ranks 2n+1 and 2n. The pair holding a
/// slice rebuilt from the checkpoint merges without traffic, because the
/// checkpoint read lands that slice on the pair's surviving host.
struct ReshardPlan {
  int old_ranks = 0;
  int new_ranks = 0;
  /// Payload bytes of one move: one slice at the wider width.
  std::uint64_t bytes_per_move = 0;
  /// Messages per move (chunking by whole amplitudes under the MPI cap).
  int messages_per_move = 0;
  /// Pairs that move a slice over the network: one per narrow rank, less
  /// the pair holding the rebuilt slice.
  int moving_pairs = 0;
  /// Filesystem bytes read to rebuild that slice; 0 without one.
  std::uint64_t rebuild_io_bytes = 0;
};

/// Plans the re-shard of an n-qubit register held as 2^(n - L) slices of
/// 2^L amplitudes to `new_ranks`, which must be half or double the current
/// width; every slice keeps at least two amplitudes. `rebuilt` names the
/// wide rank whose slice was rebuilt from the checkpoint, or is -1; only a
/// shrink takes one.
[[nodiscard]] ReshardPlan plan_reshard(int num_qubits, int local_qubits,
                                       int new_ranks, rank_t rebuilt,
                                       std::size_t max_message_bytes);

}  // namespace qsv
