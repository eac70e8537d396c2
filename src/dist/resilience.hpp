// Checkpoint/restart resilience: the layer that lets a long run survive
// injected (or, on a real machine, actual) node failures.
//
// Two pieces:
//  * interval selection — the Young/Daly first-order optimum computed from
//    system MTBF and checkpoint write cost, so the harness can sweep
//    intervals against the analytic optimum;
//  * checkpoint options — how often run_verified (dist/recovery_policy)
//    snapshots the state through dist/snapshot, where, and how many
//    restarts it attempts. On a NodeFailure it reloads the last good
//    snapshot and replays the remaining gates; replay is bit-identical to
//    an uninterrupted run (asserted by tests): gate kernels are
//    deterministic and snapshots store exact doubles.
#pragma once

#include <cstdint>
#include <string>

namespace qsv {

/// Daly's higher-order approximation of the optimal checkpoint interval
/// (compute time between checkpoints) for checkpoint cost `checkpoint_s`
/// and system MTBF `mtbf_s`:
///   sqrt(2 d M) [1 + (1/3) sqrt(d/2M) + (1/9)(d/2M)] - d   for d < 2M,
///   M                                                      otherwise.
/// Reduces to Young's sqrt(2 d M) for d << M.
[[nodiscard]] double daly_interval_s(double mtbf_s, double checkpoint_s);

/// Converts a time interval to a whole number of gates (at least 1).
[[nodiscard]] std::uint64_t interval_to_gates(double interval_s,
                                              double seconds_per_gate);

struct CheckpointOptions {
  /// Circuit gates between checkpoints; 0 disables checkpointing entirely
  /// (a NodeFailure then propagates to the caller).
  std::uint64_t interval_gates = 0;
  /// Directory for the rolling checkpoint file (created if missing).
  std::string dir = ".";
  /// Give up (rethrow) after this many restarts.
  int max_restarts = 8;
  /// Snapshot retention: newest N checkpoints kept per directory, older
  /// ones deleted as soon as a newer write commits (see CheckpointStore).
  int keep_last = 2;
};

}  // namespace qsv
