// Tiered recovery policy: who responds to which detection, and with what.
//
//   detection source          response                         bounded by
//   ------------------------  -------------------------------  -----------
//   message CRC mismatch      re-send the exchange round or     kMaxRetries
//   (CommCorrupt)             re-shard move with backoff
//                             (the engine's with_retry)
//   receive watchdog timeout  re-send; the elapsed deadline     kMaxRetries
//   (CommTimeout)             is charged as wait
//   invariant guard           rollback to the last verified     kMaxRollbacks
//   (GuardViolation)          checkpoint and replay
//   node failure              cheapest feasible of:
//   (NodeFailure)              substitute a spare node           spares
//                              shrink to half the ranks          width >= 2
//                              restart from checkpoint           kMaxRestarts
//   budget exhausted /        typed abort naming rank, gate     —
//   no rollback target        and cause (IntegrityAbort)
//
// The first two tiers live inside the engine; run_verified drives the
// rest: it executes a circuit with checkpointing (dist/resilience) plus
// invariant guards (dist/guards), rolling back on guard violations and
// recovering node failures through choose_tier — spare-node substitution
// (only the rebuilt rank replays), shrink-to-survive re-sharding (survivors
// absorb partner slices and the run continues at half width), or the PR 2
// full restart — converting exhausted budgets into IntegrityAbort so
// callers always get a typed, attributable outcome. Every recovery action
// is charged through kRecovery execution events, so a listening cost model
// prices the movement; the *choice* between feasible tiers is by expected
// energy when the caller supplies closed-form figures
// (perf/resilience_model), else by the static cheapest-first order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "cluster/health.hpp"
#include "common/stop.hpp"
#include "dist/guards.hpp"
#include "dist/resilience.hpp"

namespace qsv {

/// Guard-violation rollbacks tolerated before aborting.
inline constexpr int kMaxRollbacks = 8;

/// Node-failure restarts tolerated before the failure is rethrown.
inline constexpr int kMaxRestarts = 8;

struct RecoveryPolicy {
  /// Online health monitoring (cluster/health): observational heartbeats,
  /// suspicion scores and replacement-arrival bookkeeping. Off by default —
  /// it never changes recovery decisions, only the reported stats.
  HealthOptions health;
};

/// Elastic-recovery configuration. The library defaults reproduce the PR 4
/// restart-only behaviour (no spare pool, shrink off), so existing callers
/// see identical semantics; the CLI opts into all tiers.
struct ElasticOptions {
  /// Spare nodes available for substitution. 0 = the substitute tier never
  /// fires.
  int spares = 0;
  /// Tier enables (`--recovery=retry,substitute,shrink,grow-back,restart`).
  /// The retry tier is engine-level and always on. Grow-back and shrink are
  /// the same immediate action (re-shard to half width); grow-back
  /// additionally re-expands when a replacement arrives, so it supersedes
  /// plain shrink whenever one is expected.
  bool allow_substitute = true;
  bool allow_shrink = false;
  bool allow_grow_back = false;
  bool allow_restart = true;
  /// Closed-form expected energies per tier (perf/resilience_model), in
  /// joules; negative = unknown. The policy compares energies only when
  /// every *feasible* tier has one — otherwise it falls back to the static
  /// cheapest-first order substitute < shrink < grow-back < restart.
  double substitute_energy_j = -1;
  double shrink_energy_j = -1;
  double grow_back_energy_j = -1;
  double restart_energy_j = -1;
};

/// What the failure looked like when it was caught — the feasibility facts
/// choose_tier filters tiers against.
struct TierContext {
  /// The failure fired at a gate boundary with no sub-gate of the current
  /// circuit gate applied: every surviving slice is consistent pre-gate
  /// state. Mid-exchange failures are dirty; only restart can recover them.
  bool clean_boundary = false;
  /// Every circuit gate since the last checkpoint runs without a
  /// distributed exchange, so a rebuilt rank can replay them solo.
  bool window_replayable = false;
  bool checkpoint_exists = false;
  int spares_left = 0;
  int num_ranks = 1;
  /// A replacement node is still expected to arrive later in the run (the
  /// injector holds unfired revive specs): the fact that turns a shrink
  /// into a shrink-now-grow-back-later.
  bool replacement_expected = false;
  /// The retained checkpoint was written at the current rank width. The
  /// rank-slice tiers (substitute, shrink, grow-back) read one rank's span
  /// of the snapshot, which is only meaningful at matching geometry; a
  /// checkpoint predating a re-shard leaves restart (global amplitude
  /// order, width-agnostic) as the only rank-rebuild-free option.
  bool checkpoint_geometry_matches = true;
};

/// The chosen action, or feasible=false when no tier can recover (the
/// caller rethrows the NodeFailure).
struct TierDecision {
  bool feasible = false;
  RecoveryTier tier = RecoveryTier::kRestart;
  /// Human-readable account of why this tier won (or why none could).
  std::string reason;
};

/// Picks the cheapest feasible recovery tier. Pure: no engine or machine
/// state, just the options and the failure context — callable from tests
/// and the CLI's `price` command alike.
[[nodiscard]] TierDecision choose_tier(const ElasticOptions& opts,
                                       const TierContext& ctx);

/// Parses a `--recovery=` tier list ("retry,substitute,shrink,restart"
/// in any order) into the enable flags; tiers not named are disabled.
/// "retry" is accepted and ignored — that tier lives in the engine and is
/// always on. Throws qsv::Error on unknown tokens.
[[nodiscard]] ElasticOptions parse_recovery_tiers(const std::string& text);

/// Recovery budget exhausted, or corruption detected with nothing to roll
/// back to: the run is not salvageable and the caller gets the forensics.
class IntegrityAbort : public Error {
 public:
  IntegrityAbort(const std::string& what, rank_t rank, std::uint64_t gate,
                 std::string cause)
      : Error(what), rank_(rank), gate_(gate), cause_(std::move(cause)) {}

  /// Rank the failure localises to; -1 for a global invariant.
  [[nodiscard]] rank_t rank() const { return rank_; }
  /// Circuit-gate index where detection fired.
  [[nodiscard]] std::uint64_t gate() const { return gate_; }
  /// The underlying detection's message.
  [[nodiscard]] const std::string& cause() const { return cause_; }

 private:
  rank_t rank_;
  std::uint64_t gate_;
  std::string cause_;
};

struct IntegrityStats {
  bool completed = false;
  /// Node-failure restarts (tier: restart from checkpoint).
  int restarts = 0;
  /// Guard-violation rollbacks (tier: rollback and replay).
  int rollbacks = 0;
  /// Spare-node substitutions (tier: rebuild one rank onto a spare).
  int substitutions = 0;
  /// Shrink-to-survive re-shards (tier: halve the rank count), including
  /// those performed by the grow-back tier's immediate action.
  int shrinks = 0;
  /// Elastic grow-back re-shards (doublings back toward the planned width).
  int grow_backs = 0;
  /// Rank count the run was planned at.
  int planned_ranks = 0;
  /// Rank count at the end of the run (< planned_ranks after a shrink that
  /// never grew back — the degraded-completion case).
  int final_ranks = 0;
  /// Replacement arrivals drained from the injector's revive stream.
  std::uint64_t revivals = 0;
  /// Circuit gates executed below the planned width by the end of the run
  /// (0 when the run finished at full width).
  std::uint64_t degraded_gates = 0;
  /// Tier chosen for each recovered node failure, in firing order.
  std::vector<RecoveryTier> tiers_used;
  int checkpoints_written = 0;
  /// Checkpoint writes that failed (disk full, unwritable directory) and
  /// were tolerated: the run continued uncheckpointed from that point, with
  /// the last good snapshot kept as the rollback target. Each failure is
  /// priced as a kWarning event.
  int checkpoint_write_failures = 0;
  /// Circuit gates re-executed after restarts/rollbacks/solo replays
  /// (lost work).
  std::uint64_t gates_replayed = 0;
  std::uint64_t guard_checks = 0;
  std::uint64_t guard_violations = 0;
  /// Copy of the injector's fault log (empty without an injector).
  std::vector<FaultEvent> faults;
  /// Health-monitor counters (all zero when RecoveryPolicy::health is off).
  HealthMonitor::Stats health;
};

/// Runs `c` on `sv` under the full integrity regime: checkpoints every
/// `ck.interval_gates` circuit gates (0 = off), guard checks per `guards`
/// (cadence 0 = off; a final check always runs when guards are enabled so
/// trailing corruption cannot slip out), rollbacks/restarts per `policy`.
/// With guards on and checkpointing off, a violation aborts immediately —
/// there is nothing to roll back to. NodeFailure propagates unchanged when
/// checkpointing is off (PR 2 semantics). Node failures route through
/// choose_tier(elastic, ...); the default ElasticOptions reduce that to the
/// PR 4 restart-only path.
///
/// Checkpoint write failures (disk full, unwritable directory) do not kill
/// a healthy run: the failure is logged, priced as a kWarning event, counted
/// in stats.checkpoint_write_failures, and the run continues uncheckpointed
/// — the last successfully committed snapshot stays the rollback target.
///
/// `stop` (optional) is polled at every gate boundary; when it fires the
/// run raises DeadlineExceeded carrying the applied prefix length, leaving
/// `sv` in the consistent state after exactly that prefix so callers can
/// digest/price the partial work.
template <class S>
IntegrityStats run_verified(DistStateVector<S>& sv, const Circuit& c,
                            const CheckpointOptions& ck,
                            const GuardOptions& guards,
                            const RecoveryPolicy& policy = {},
                            const ElasticOptions& elastic = {},
                            const StopToken* stop = nullptr);

}  // namespace qsv
