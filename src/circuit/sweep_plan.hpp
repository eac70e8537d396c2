// Sweep grouping: partitions a gate stream into maximal runs of consecutive
// gates that can all be executed tile-by-tile on contiguous blocks of
// 2^tile_qubits amplitudes.
//
// This is the paper's cache-blocking idea applied one level below the node:
// just as the transpiler hoists SWAPs so gates act on qubits below L (the
// rank boundary), the sweep planner finds gates acting below t (the tile
// boundary) and lets the engines stream each tile through the cache once for
// the whole run instead of streaming the full statevector once per gate.
//
// A tile of 2^t consecutive amplitudes is exactly a "virtual rank" slice:
// bit q >= t of the global amplitude index is bit (q - t) of the tile id
// (extended by the real rank bits above L). Any gate the locality taxonomy
// does not classify as distributed *at L = t* can therefore run inside a
// tile with the existing slice kernels — diagonal gates with operands above
// t included, since high bits only gate tile participation.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/gate.hpp"

namespace qsv {

/// Default tile exponent: 2^15 amplitudes = 512 KiB of amplitude data
/// (16 bytes each), a quarter of a typical per-core L2. Re-tuned after the
/// SIMD kernel layer landed (bench/micro_sweep --tile, 25 qubits, avx512
/// host): the vector kernels raise bandwidth demand enough that t = 15
/// edges out the previous t = 16 (QFT local layer 0.44 s vs 0.45 s) while
/// t = 17 overflows L2 and loses ~25%. t = 14..16 are within noise for
/// dense runs, so half-sized L2s are still served well.
inline constexpr int kDefaultSweepTileQubits = 15;

/// Minimum consecutive sweepable gates worth tiling; shorter stretches
/// execute gate-by-gate (a run of one gate saves no pass).
inline constexpr std::size_t kMinSweepRun = 2;

/// Knobs for the sweep executor, shared by both engines and the planner.
struct SweepOptions {
  /// Master toggle: off means every gate streams the statevector alone.
  bool enabled = true;

  /// Tile exponent t (2^t amplitudes per tile). Clamped to the slice size.
  int tile_qubits = kDefaultSweepTileQubits;
};

/// One segment of the partition: gates [first, first + count) of the
/// stream. Segments never overlap, never reorder, and cover the stream.
struct GateRun {
  std::size_t first = 0;
  std::size_t count = 0;
  /// True: every gate in the segment is sweepable and the engines apply the
  /// whole segment tile-by-tile in one pass. False: apply gate-by-gate.
  bool sweep = false;
};

/// True if `g` can run inside a tile of 2^tile_qubits amplitudes: diagonal
/// gates always (high operands only gate tile participation), non-diagonal
/// gates when every target lies below the tile boundary.
[[nodiscard]] bool is_sweepable(const Gate& g, int tile_qubits);

/// The run that starts at gates[first] in slices of 2^local_qubits
/// amplitudes and ends by gates[end - 1]: the sweepable gates from `first`
/// when at least kMinSweepRun of them lie before `end`, else the single
/// gate at `first`. The effective tile is min(opts.tile_qubits,
/// local_qubits), so a gate local to the slice but above the tile boundary
/// breaks a run. With opts.enabled == false every run is a single gate.
[[nodiscard]] GateRun next_sweep_run(const std::vector<Gate>& gates,
                                     std::size_t first, std::size_t end,
                                     int local_qubits,
                                     const SweepOptions& opts);

/// Partitions `gates` into next_sweep_run's runs, adjacent single gates
/// merged into one gate-by-gate run. With opts.enabled == false, one
/// non-sweep run covers the whole stream.
[[nodiscard]] std::vector<GateRun> plan_sweep_runs(
    const std::vector<Gate>& gates, int local_qubits,
    const SweepOptions& opts);

}  // namespace qsv
