// Execution events: the factual record of what the engine did per gate.
//
// Both the functional engine (which really moves amplitudes) and the trace
// engine (which only plans) emit identical event streams for the same
// circuit and decomposition — asserted by tests — so a cost model listening
// to a trace run prices exactly the work a real run performs.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/gate.hpp"
#include "circuit/locality.hpp"
#include "cluster/cluster.hpp"
#include "common/types.hpp"

namespace qsv {

/// The four recovery tiers, in the static cheapest-first order the policy
/// falls back through when no expected-energy figures are supplied.
/// kRetry is the engine's bounded re-send (always on, priced through the
/// retry_* fields of the affected gate event, or of the re-shard's network
/// event for a re-shard move); the others are run_verified's actions,
/// priced as kRecovery events.
enum class RecoveryTier {
  kRetry,       // re-send the affected exchange round
  kSubstitute,  // rebuild the dead rank's slice onto a spare node
  kShrink,      // re-shard 2^k -> 2^(k-1): survivors absorb partner slices
  kGrowBack,    // shrink now, then re-shard 2^k -> 2^(k+1) when a
                // replacement arrives: survivors shed the absorbed halves
  kRestart,     // reload the whole job from the last verified checkpoint
};

[[nodiscard]] inline const char* recovery_tier_name(RecoveryTier t) {
  switch (t) {
    case RecoveryTier::kRetry: return "retry";
    case RecoveryTier::kSubstitute: return "substitute";
    case RecoveryTier::kShrink: return "shrink";
    case RecoveryTier::kGrowBack: return "grow-back";
    case RecoveryTier::kRestart: return "restart";
  }
  return "?";
}

struct ExecEvent {
  enum class Kind {
    kLocalGate,  // fully-local or local-memory application on each slice
    kExchange,   // pairwise slice exchange + combine (distributed gate)
    kSweep,      // announcement of a cache-tiled run of local gates; the
                 // gates inside still emit their own kLocalGate events, so
                 // pricing is unchanged and this event is purely a report
                 // of memory passes saved
    kGuard,      // an integrity guard's norm check over local_amps per
                 // rank: emitted by the guard layer, never by the engine
                 // itself, so engine event streams stay identical between
                 // the functional and trace backends and guards-off runs
                 // are zero-delta
    kRecovery,   // a recovery action (substitute / shrink / restart):
                 // emitted by the recovery driver, never by the engine, so
                 // fault-free streams are unchanged. One action emits
                 // separate events for its I/O phase (checkpoint reads) and
                 // network phase (re-shard movement), each with its own
                 // participating fraction
    kWarning,    // a tolerated degradation (e.g. a checkpoint write that
                 // failed and was skipped): emitted by the driver, never by
                 // the engine, so healthy streams are unchanged. Priced as
                 // the I/O time the failed attempt burned before erroring
                 // (warning_io_bytes at filesystem write bandwidth), and
                 // counted into RunReport::warnings so fleet reporting can
                 // surface degraded-but-successful runs
  };

  Kind kind{};
  GateKind gate{};
  GateLocality locality{};

  /// Per-rank slice size in amplitudes.
  amp_index local_amps = 0;

  /// Lowest local target qubit (-1 when the operands are all rank bits).
  /// The cost model uses this for the NUMA stride penalty.
  int local_target = -1;

  /// Fraction of ranks doing work for this gate (idle ranks burn idle
  /// power but add no runtime, since gates synchronise globally).
  double participating_fraction = 1.0;

  // --- exchange-only fields ---
  /// Payload bytes each participating rank sends (== receives).
  std::uint64_t bytes_per_rank = 0;
  /// Messages each participating rank sends.
  int messages_per_rank = 0;
  CommPolicy policy = CommPolicy::kBlocking;
  bool half_exchange = false;
  /// Pipeline depth of an overlapped exchange: the number of chunks the
  /// payload was streamed in (== messages_per_rank), each combined while
  /// its successors were still in flight. 0 for non-overlapped policies, so
  /// overlap-off event streams are unchanged. The cost model turns this
  /// into the measured t_comm − t_overlap saving via the pipelined-chunk
  /// relation: (chunks−1)/chunks of min(t_comm, t_combine) is hidden.
  int overlap_chunks = 0;

  // --- fault-recovery fields (zero on fault-free runs, so pricing and
  // event-stream identity with the trace engine are unchanged) ---
  /// Extra payload bytes re-sent by the bounded retry layer.
  std::uint64_t retry_bytes = 0;
  /// Extra messages re-sent by the bounded retry layer.
  int retry_messages = 0;
  /// Injected latency: straggler delays plus retry backoff, charged by the
  /// cost model as idle time across the job.
  double fault_delay_s = 0;

  // --- recovery-only fields (kRecovery; all zero on every other kind) ---
  RecoveryTier recovery_tier = RecoveryTier::kRetry;
  /// Filesystem bytes read to rebuild state (I/O-phase events).
  std::uint64_t recovery_io_bytes = 0;
  /// Re-shard payload bytes each moving rank ships (network-phase events);
  /// priced with the same pairwise-exchange timing as a distributed gate.
  std::uint64_t recovery_bytes_per_rank = 0;
  /// Re-shard messages each moving rank sends (chunking under the MPI cap).
  int recovery_messages_per_rank = 0;
  /// Gates the rebuilt rank replays solo to catch up (reported for the
  /// record; the replay itself is priced by its ordinary kLocalGate events
  /// at a 1/R participating fraction).
  std::uint64_t recovery_replayed_gates = 0;

  // --- warning-only fields (kWarning; zero on every other kind) ---
  /// Bytes the failed/abandoned I/O attempt would have written; priced at
  /// filesystem write bandwidth (skipped when the model has none).
  std::uint64_t warning_io_bytes = 0;

  // --- sweep-only fields ---
  /// Gates folded into the tiled run.
  int sweep_gates = 0;
  /// Tiles per rank (slice amplitudes / tile amplitudes).
  amp_index sweep_tiles = 0;

  bool operator==(const ExecEvent&) const = default;
};

/// Receiver of engine events (implemented by the cost model and by tests).
class ExecListener {
 public:
  virtual ~ExecListener() = default;
  virtual void on_event(const ExecEvent& e) = 0;
};

/// Listener that simply records the stream (tests, event-stream diffing).
class RecordingListener final : public ExecListener {
 public:
  void on_event(const ExecEvent& e) override { events_.push_back(e); }
  [[nodiscard]] const std::vector<ExecEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<ExecEvent> events_;
};

}  // namespace qsv
