// Cache-tiled multi-gate sweep executor.
//
// Applies a run of sweepable gates (see circuit/sweep_plan.hpp) to a slice
// one L2-sized tile at a time: the tile is loaded once, every gate of the
// run updates it in place, and only then does the next tile stream in. A
// run of k gates thus costs one pass over the slice instead of k — the same
// bytes-moved argument the paper makes for node-level cache blocking,
// applied inside a rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "circuit/gate.hpp"
#include "circuit/sweep_plan.hpp"
#include "common/types.hpp"

namespace qsv {

/// Counters an engine accumulates over its sweep runs.
struct SweepStats {
  std::uint64_t runs = 0;         // tiled runs executed
  std::uint64_t swept_gates = 0;  // gates folded into those runs
  std::uint64_t tiles = 0;        // per-slice tiles processed across runs
  /// Full passes over the slice avoided versus gate-by-gate execution
  /// (run of k gates: k passes become 1, saving k - 1).
  std::uint64_t passes_saved = 0;

  void add_run(std::uint64_t gates_in_run, std::uint64_t run_tiles) {
    ++runs;
    swept_gates += gates_in_run;
    tiles += run_tiles;
    passes_saved += gates_in_run - 1;
  }
};

namespace kern {

/// Applies gates[0 .. count) to every 2^min(tile_qubits, local_qubits)-
/// amplitude tile of every slice in `slices`, tile by tile, in one
/// parallel loop over all their tiles. Slice k holds rank first_rank + k
/// (a single-address-space state is rank 0); every gate must be sweepable
/// at the effective tile size.
template <class S>
void apply_sweep_run(std::span<S> slices, amp_index first_rank,
                     const Gate* gates, std::size_t count, int tile_qubits,
                     int local_qubits);

/// Ready-region executor for the overlapped exchange pipeline: drives a
/// region kernel over amplitudes [0, total) chasing an arrival frontier
/// instead of waiting for the whole payload.
///
/// `ready(done)` advances the frontier — typically by receiving the next
/// chunk of an in-flight exchange — and returns the new watermark W
/// (monotone, eventually >= total): amplitudes [0, W) have arrived. `done`
/// is how far application has got: every region below it has been applied
/// and none will be again, so whatever only those regions read can go.
/// `apply(first, count)` is then invoked over the newly combinable span,
/// broken into at most `tile`-amplitude pieces so application stays
/// cache-tiled while it chases the frontier.
///
/// `align` (a power of two) bounds how far application may trail the
/// watermark: apply only ever sees spans whose boundaries are multiples of
/// `align`, except the final span which ends exactly at `total`. A kernel
/// whose amplitude i reads a partner within the same align-sized block
/// (combine_swap_one_high_range reads flip_bit(i, a): align = 2^(a+1)) is
/// therefore never handed a region whose partner data has not arrived.
/// Pass align = 1 for purely elementwise kernels.
///
/// Regions are applied strictly in increasing order, each amplitude exactly
/// once, with the same per-amplitude arithmetic a single full pass would
/// run — this is what makes the overlapped path bitwise identical to the
/// serial one.
template <class ReadyFn, class ApplyFn>
void apply_over_frontier(amp_index total, amp_index align, amp_index tile,
                         ReadyFn&& ready, ApplyFn&& apply) {
  amp_index done = 0;
  while (done < total) {
    const amp_index w = ready(done);
    // Hold application back to the last alignment boundary at or below the
    // watermark; once everything has arrived, run out to the exact end.
    const amp_index safe = w >= total ? total : w & ~(align - 1);
    for (amp_index first = done; first < safe; first += tile) {
      const amp_index count = std::min(tile, safe - first);
      apply(first, count);
    }
    done = std::max(done, safe);
  }
}

}  // namespace kern
}  // namespace qsv
