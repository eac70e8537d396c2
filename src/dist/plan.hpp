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

/// Shrink-to-survive re-shard from 2^k to 2^(k-1) ranks. Because the top k
/// qubits select the rank, new rank n's slice is the concatenation of old
/// ranks 2n (low half) and 2n+1 (high half): every old even rank absorbs its
/// odd partner. The pair containing `dead_rank` merges without network
/// traffic — the dead slice is rebuilt from the checkpoint directly onto its
/// new host — so 2^(k-1) - 1 pairs ship one slice each over the wire.
struct ReshardPlan {
  int old_ranks = 0;
  int new_ranks = 0;
  rank_t dead_rank = -1;
  /// Amplitudes per *old* slice (what each move ships).
  amp_index slice_amps = 0;
  /// Payload bytes one absorbing move ships (= one old slice).
  std::uint64_t bytes_per_move = 0;
  /// Messages per move (chunking by whole amplitudes under the MPI cap).
  int messages_per_move = 0;
  /// Pairs that move a slice over the network (excludes the dead pair).
  int moving_pairs = 0;
  /// Total network payload: moving_pairs * bytes_per_move.
  std::uint64_t total_bytes = 0;
  /// Filesystem bytes read to rebuild the dead slice from the checkpoint.
  std::uint64_t rebuild_io_bytes = 0;
};

/// Plans the re-shard for an n-qubit register currently split over
/// 2^(n - L) >= 2 ranks. Throws when already down to one rank.
[[nodiscard]] ReshardPlan plan_reshard(int num_qubits, int local_qubits,
                                       rank_t dead_rank,
                                       std::size_t max_message_bytes);

/// Grow-back re-shard from 2^k to 2^(k+1) ranks — the exact inverse of the
/// shrink: survivor n keeps the low half of its doubled slice as new rank 2n
/// and sheds the absorbed partner half to revived rank 2n+1. Unlike the
/// shrink there is no free pair: every survivor ships one (new-width) slice
/// over the wire, and nothing is read from the filesystem — the data is
/// already resident in survivor memory.
struct GrowBackPlan {
  int old_ranks = 0;
  int new_ranks = 0;
  /// Amplitudes per *new* slice (what each survivor sheds).
  amp_index slice_amps = 0;
  /// Payload bytes one shedding move ships (= one new slice).
  std::uint64_t bytes_per_move = 0;
  /// Messages per move (chunking by whole amplitudes under the MPI cap).
  int messages_per_move = 0;
  /// Pairs that move a slice over the network (= old_ranks: all of them).
  int moving_pairs = 0;
  /// Total network payload: moving_pairs * bytes_per_move.
  std::uint64_t total_bytes = 0;
};

/// Plans the grow-back for an n-qubit register currently split over
/// 2^(n - L) ranks holding 2^L amplitudes each. Requires L >= 2 so each
/// post-grow rank still holds at least two amplitudes, and L < n is implied
/// by the shrink that preceded it (a never-shrunk single-rank run has L == n
/// and cannot grow).
[[nodiscard]] GrowBackPlan plan_grow_back(int num_qubits, int local_qubits,
                                          std::size_t max_message_bytes);

}  // namespace qsv
