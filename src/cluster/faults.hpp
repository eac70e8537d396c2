// Deterministic fault injection for the virtual cluster.
//
// The paper's headline runs (44 qubits on 4096 nodes, multi-hour jobs) sit
// in the regime where node failures are expected events, not anomalies. The
// real machine loses nodes, drops/corrupts link-level messages (surfacing
// as MPI timeouts) and suffers stragglers; our failure-free virtual cluster
// models none of that. This header adds a seeded, fully deterministic fault
// model: a FaultPlan lists *what* goes wrong and *when* (by gate index, or by
// the ordinal of a message among those its sender has sent, or sampled from
// per-node MTBF), and a FaultInjector executes the plan during a run,
// recording every fired event so two runs with the same plan are
// bit-identical — asserted by tests. Counting messages per sender makes a
// verdict independent of how senders interleave, so the serial engine and
// the ranks-as-threads engine fire the same faults on the same messages.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace qsv {

/// Unrecoverable loss of a node (or retries exhausted against one): the
/// typed error a resilience layer catches to trigger recovery — spare-node
/// substitution, shrink-to-survive re-sharding, or restart-from-checkpoint.
class NodeFailure : public Error {
 public:
  NodeFailure(const std::string& what, rank_t rank, std::uint64_t gate_index,
              bool at_gate_boundary = false)
      : Error(what),
        rank_(rank),
        gate_index_(gate_index),
        at_gate_boundary_(at_gate_boundary) {}

  [[nodiscard]] rank_t rank() const { return rank_; }
  [[nodiscard]] std::uint64_t gate_index() const { return gate_index_; }
  /// True when the failure fired at a gate boundary (tick before any work
  /// of the gate), so every surviving slice holds a consistent pre-gate
  /// state. False for mid-exchange detections, where surviving slices may
  /// be partially combined — only a full restart can recover those.
  [[nodiscard]] bool at_gate_boundary() const { return at_gate_boundary_; }

 private:
  rank_t rank_;
  std::uint64_t gate_index_;
  bool at_gate_boundary_;
};

/// Transient communication fault (retryable): the base the engine's bounded
/// retry loop catches. Fault-free runs never see these.
class CommFault : public Error {
 public:
  using Error::Error;
};

/// A receive that found no message: models an MPI timeout after a drop.
class CommTimeout : public CommFault {
 public:
  using CommFault::CommFault;
};

/// A delivered message whose payload failed its integrity check.
class CommCorrupt : public CommFault {
 public:
  using CommFault::CommFault;
};

enum class FaultKind {
  kNodeFailure,  // a rank dies at a gate index (checkpoint/restart territory)
  kDropMessage,  // a message is sent but never delivered (-> recv timeout)
  kCorruptMessage,  // a delivered message has a flipped payload byte
  kStraggler,    // a message is delivered late (charged as idle time)
  kBitFlip,      // silent corruption: a resident amplitude bit flips in DRAM
  kRevive,       // a replacement node joins the allocation at a gate index
                 // (the elastic grow-back trigger, not a fault per se)
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);

/// One planned fault. Message faults trigger on the Nth message their
/// sender sends (1-based, counted over the whole run); node failures
/// trigger when the engine starts the gate with this 0-based index.
struct FaultSpec {
  FaultKind kind{};
  /// Affected rank: the dying rank for kNodeFailure, the sender for message
  /// faults, the earmarked rank for kRevive (-1 = none).
  rank_t rank = -1;
  /// 1-based ordinal among the messages `rank` sends (message faults).
  std::uint64_t at_message = 0;
  /// 0-based gate index (kNodeFailure, kBitFlip).
  std::uint64_t at_gate = 0;
  /// Added latency for kStraggler, seconds.
  double delay_s = 0;
  /// Bit to flip within the 128-bit resident amplitude (kBitFlip); -1 draws
  /// one at random from the plan's seeded stream.
  int bit = -1;

  bool operator==(const FaultSpec&) const = default;
};

/// The full deterministic schedule of faults for a run: one-shot specs,
/// plus the seed of the stream that draws bit-flip positions.
struct FaultPlan {
  std::vector<FaultSpec> specs;
  std::uint64_t seed = 1;

  [[nodiscard]] bool empty() const { return specs.empty(); }
};

/// Draws node-failure times from per-node exponential lifetimes with mean
/// `node_mtbf_s`, converts them to gate indices at `seconds_per_gate`, and
/// returns a plan holding every failure landing inside `num_gates`.
/// Deterministic for a fixed seed.
[[nodiscard]] FaultPlan sample_node_failures(double node_mtbf_s,
                                             double seconds_per_gate,
                                             std::uint64_t num_gates,
                                             int num_ranks,
                                             std::uint64_t seed);

/// Parses a comma-separated fault list, e.g.
///   "fail@120:2, drop@5, corrupt@9:1, delay@3:0.25, bitflip@40:1"
/// where `fail@G[:R]` kills rank R (default 0) at gate G, `drop@M[:R]` /
/// `corrupt@M[:R]` hit the Mth message sent by rank R (default 0),
/// `delay@M:S` delays rank 0's Mth message by S seconds, `bitflip@G[:R[:B]]`
/// flips bit B (default: random) of a random resident amplitude on rank R
/// (default 0) before gate G, and `revive@G[:R]` announces a replacement
/// node (optionally earmarked for rank R) joining the allocation at gate G —
/// the deterministic arrival stream the elastic grow-back consumes. Throws
/// qsv::Error on malformed specs.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& text);

/// A fault that actually fired during a run (the deterministic event
/// stream; two runs with the same plan produce identical logs).
struct FaultEvent {
  FaultKind kind{};
  rank_t rank = -1;        // dying rank / sender
  rank_t peer = -1;        // receiver for message faults
  std::uint64_t message = 0;  // the sender's message ordinal (message faults)
  std::uint64_t gate = 0;     // gate index when the fault fired
  double delay_s = 0;
  int bit = -1;               // flipped amplitude bit (kBitFlip)

  bool operator==(const FaultEvent&) const = default;
};

/// Executes a FaultPlan against a run. The VirtualCluster consults it on
/// every message; the engine consults it at every gate boundary. All
/// decisions are functions of (plan, sender, the sender's message ordinal,
/// gate index) only: each rank sends its messages in the same order on
/// every engine, so a spec hits the same message whether ranks run in turn
/// on one thread or concurrently on their own. Every mutating entry point
/// is internally synchronised, so concurrent rank threads can consult one
/// injector; log() and totals() return references and must only be read
/// between parallel regions.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Verdict for one message about to be carried from `from` to `to`.
  enum class Verdict { kDeliver, kDrop, kCorrupt, kDelay };
  struct MessageOutcome {
    Verdict verdict = Verdict::kDeliver;
    double delay_s = 0;
    /// kDelay only: the straggler lands after the receiver's watchdog gives
    /// up, so the message is never consumed — the transport must drop it and
    /// the matching recv surfaces a CommTimeout, not a silent late success.
    bool past_deadline = false;
  };
  /// Draw order when several specs land on the same message ordinal: every
  /// matching one-shot latch fires, and the *most severe* verdict wins —
  /// drop > corrupt > straggle — because a dropped message makes a companion
  /// corruption or delay moot (nothing is delivered). Only the winning event
  /// is logged and charged. `recv_deadline_s` is the receiver watchdog
  /// deadline; a straggler strictly exceeding it is flagged past_deadline
  /// and its delay is *not* charged to the gate (the retry layer charges the
  /// watchdog wait instead — charging both would double-count).
  [[nodiscard]] MessageOutcome on_message(
      rank_t from, rank_t to,
      double recv_deadline_s = std::numeric_limits<double>::infinity());

  /// Called by the engine when gate `index` starts; returns the rank that
  /// dies at this gate, if any (the engine then throws NodeFailure).
  [[nodiscard]] std::optional<rank_t> on_gate(std::uint64_t index);

  /// Silent-corruption events due before gate `index`: each names a rank, a
  /// raw 64-bit amplitude draw (the engine reduces it modulo its local
  /// amplitude count) and a bit in [0, 128) of the complex amplitude. Specs
  /// are one-shot and the draws come from the plan's seeded stream, so a
  /// rollback-and-replay does not re-corrupt.
  struct BitFlipSpec {
    rank_t rank = 0;
    std::uint64_t amp_draw = 0;
    int bit = 0;
  };
  [[nodiscard]] std::vector<BitFlipSpec> bitflips_at_gate(
      std::uint64_t index);

  /// True once `rank` has died and not been replaced by a restart.
  [[nodiscard]] bool rank_dead(rank_t rank) const;

  /// Gate index most recently announced via on_gate (for error reporting).
  [[nodiscard]] std::uint64_t current_gate() const {
    std::lock_guard<std::mutex> lk(m_);
    return current_gate_;
  }

  /// Records an engine-level retry (for the per-gate accounting the cost
  /// model charges as extra traffic + backoff idle time).
  void record_retry(std::uint64_t bytes, int messages, double backoff_s);

  /// Per-gate accounting, drained by the engine when it emits the gate's
  /// execution event.
  struct GateFaultCharges {
    std::uint64_t retry_bytes = 0;
    int retry_messages = 0;
    double delay_s = 0;  // straggler latency + retry backoff
  };
  [[nodiscard]] GateFaultCharges take_gate_charges();

  /// Adds charges drained by take_gate_charges back to the pending ones (a
  /// re-shard sets aside what was pending before its moves).
  void put_back_gate_charges(const GateFaultCharges& charges);

  /// A restart replaces dead nodes with fresh ones: clears the dead set.
  /// Already-fired one-shot specs stay fired, so the same failure does not
  /// recur on replay.
  void restart();

  /// Spare-node substitution replaces exactly one dead rank with a fresh
  /// node bound to the same rank id: removes `rank` from the dead set
  /// without touching other dead ranks or any one-shot latches.
  void revive(rank_t rank);

  /// Drains the replacement-arrival stream: fires (and logs) every kRevive
  /// spec whose gate index is <= `up_to_gate`, returning how many fired.
  /// One-shot like every spec: a drained arrival never re-fires on replay.
  /// The recovery driver polls this at gate boundaries and triggers the
  /// grow-back re-shard when it returns non-zero.
  [[nodiscard]] std::size_t take_revivals(std::uint64_t up_to_gate);

  /// kRevive specs not yet fired: whether a replacement node is still
  /// expected to arrive later in the run (feeds TierContext so choose_tier
  /// can prefer shrink-now-grow-back-later over shrink-forever).
  [[nodiscard]] std::size_t pending_revivals() const;

  /// Every fault that fired, in firing order.
  [[nodiscard]] const std::vector<FaultEvent>& log() const { return log_; }

  /// Totals over the whole run (including across restarts).
  struct Totals {
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t straggled = 0;
    std::uint64_t node_failures = 0;
    std::uint64_t bitflips = 0;
    std::uint64_t revivals = 0;
    std::uint64_t retries = 0;
    std::uint64_t retry_bytes = 0;
    double delay_s = 0;

    bool operator==(const Totals&) const = default;
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  std::vector<bool> fired_;  // one-shot latch per spec
  std::vector<rank_t> dead_;
  Rng bitflip_rng_;
  std::map<rank_t, std::uint64_t> sent_;  // messages each sender has sent
  std::uint64_t current_gate_ = 0;
  GateFaultCharges gate_charges_;
  Totals totals_;
  std::vector<FaultEvent> log_;
  mutable std::mutex m_;
};

}  // namespace qsv
