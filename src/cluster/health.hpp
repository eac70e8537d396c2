// Online rank-health monitoring for the virtual cluster.
//
// On the real machine the scheduler learns about sick nodes from missed
// heartbeats long before MPI surfaces a hard error; acting on that signal
// too eagerly is how one straggling node re-shards a healthy job. This
// layer reproduces that tension deterministically: ranks "heartbeat" by
// participating in exchanges (piggybacked — a gate that exchanged proves
// every participating rank alive at no extra traffic), an idle-period probe
// covers long local stretches where no exchange happens, and a
// phi-accrual-style suspicion score with hysteresis separates "late" from
// "gone".
//
// The monitor is strictly observational: suspicion NEVER triggers recovery
// (that is the hysteresis contract — one straggler must not cause a
// re-shard). Only a confirmed NodeFailure, surfaced by the transport or the
// gate-boundary fault tick, is acted on; the monitor just records it. The
// replacement-arrival stream (FaultPlan `revive@T` specs) is what arms the
// elastic grow-back — see dist/recovery_policy.
//
// Time is measured in gate indices, not wall seconds: the simulation is
// deterministic and single-process, so gates are the only monotone clock
// every rank shares. All inputs come from the driver between parallel
// regions; the monitor itself needs no locking.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace qsv {

struct HealthOptions {
  /// Run a HealthMonitor alongside run_verified. Its thresholds are fixed
  /// (cluster/health.cpp).
  bool enabled = false;
};

/// Per-rank heartbeat bookkeeping + suspicion scores. Drive it with one
/// observe() per applied gate; read suspicions and stats between gates.
class HealthMonitor {
 public:
  explicit HealthMonitor(int num_ranks);

  [[nodiscard]] int num_ranks() const {
    return static_cast<int>(ranks_.size());
  }

  /// One driver observation after gate `gate` completed. `exchanged` is
  /// true when the gate involved cross-rank traffic: every live rank that
  /// is not listed in `missed` heartbeats (piggybacked). Ranks in `missed`
  /// had a message fault (drop/corrupt/straggle) at this gate — their beat
  /// is withheld, which is what accrues suspicion. Local gates heartbeat
  /// nobody except through the idle probe at its cadence.
  void observe(std::uint64_t gate, bool exchanged,
               const std::vector<rank_t>& missed = {});

  /// Explicit heartbeat from rank `r` at `gate` (probes and tests).
  void heartbeat(rank_t r, std::uint64_t gate);

  /// Staleness of rank `r` at `now_gate`, in units of its mean heartbeat
  /// interval (phi-accrual style: the score grows without bound while the
  /// rank stays silent, and collapses on the next beat).
  [[nodiscard]] double phi(rank_t r, std::uint64_t now_gate) const;

  [[nodiscard]] bool suspected(rank_t r) const;

  /// A NodeFailure for `r` was confirmed by the transport or fault tick:
  /// recorded for the stats; the rank stops accruing suspicion (it is not
  /// late, it is dead).
  void confirm_failure(rank_t r, std::uint64_t gate);

  /// A replacement node arrived (a fired revive spec).
  void replacement_arrived(std::uint64_t gate);

  /// Re-shards renumber ranks (shrink merges pairs, grow-back splits them),
  /// so per-rank histories stop being meaningful: restart the bookkeeping
  /// at the new width with every rank considered freshly alive.
  void reset_width(int num_ranks, std::uint64_t gate);

  struct Stats {
    std::uint64_t beats = 0;        // heartbeats observed (incl. probes)
    std::uint64_t probes = 0;       // idle-period probe rounds emitted
    std::uint64_t suspicions = 0;   // rank transitions into suspected
    std::uint64_t clears = 0;       // suspected ranks cleared by a beat
    std::uint64_t confirmed = 0;    // confirmed node failures recorded
    std::uint64_t replacements = 0; // replacement arrivals recorded
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct RankState {
    std::uint64_t last_beat = 0;
    double mean_interval = 1.0;  // EWMA of observed beat spacing, in gates
    bool suspected = false;
    bool dead = false;
  };
  void update_suspicion(std::uint64_t now_gate);

  std::vector<RankState> ranks_;
  std::uint64_t last_exchange_gate_ = 0;
  Stats stats_;
};

}  // namespace qsv
