// Deterministic fault injection for the virtual cluster.
//
// The paper's headline runs (44 qubits on 4096 nodes, multi-hour jobs) sit
// in the regime where node failures are expected events, not anomalies. The
// real machine loses nodes, drops/corrupts link-level messages (surfacing
// as MPI timeouts) and suffers stragglers; our failure-free virtual cluster
// models none of that. This header adds a seeded, fully deterministic fault
// model: a FaultPlan lists *what* goes wrong and *when* (by gate index or
// global message ordinal, or probabilistically from per-node MTBF), and a
// FaultInjector executes the plan during a run, recording every fired event
// so two runs with the same plan are bit-identical — asserted by tests.
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

/// One planned fault. Message faults trigger on the Nth message the cluster
/// carries (1-based ordinal over the whole run); node failures trigger when
/// the engine starts the gate with this 0-based index.
struct FaultSpec {
  FaultKind kind{};
  /// Affected rank: the dying rank for kNodeFailure, the sender for message
  /// faults (-1 = any sender).
  rank_t rank = -1;
  /// 1-based message ordinal (message faults): global under the injector's
  /// default scope, per-sender under OrdinalScope::kPerSender.
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

/// The full deterministic schedule of faults for a run: explicit one-shot
/// specs plus optional per-message probabilities drawn from a seeded stream.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  /// Per-message probabilities (evaluated in this order: drop, corrupt,
  /// straggle) using the plan's seed; 0 disables the draw entirely, keeping
  /// purely explicit plans RNG-free.
  double drop_prob = 0;
  double corrupt_prob = 0;
  double straggler_prob = 0;
  double straggler_delay_s = 0;
  std::uint64_t seed = 1;

  [[nodiscard]] bool empty() const {
    return specs.empty() && drop_prob == 0 && corrupt_prob == 0 &&
           straggler_prob == 0;
  }
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
/// where `fail@G[:R]` kills rank R (default 0) at gate G, `drop@M` /
/// `corrupt@M[:R]` hit the Mth message (optionally only if sent by R),
/// `delay@M:S` delays the Mth message by S seconds, `bitflip@G[:R[:B]]`
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
  std::uint64_t message = 0;  // global message ordinal (message faults)
  std::uint64_t gate = 0;     // gate index when the fault fired
  double delay_s = 0;
  int bit = -1;               // flipped amplitude bit (kBitFlip)

  bool operator==(const FaultEvent&) const = default;
};

/// Executes a FaultPlan against a run. The VirtualCluster consults it on
/// every message; the engine consults it at every gate boundary. All
/// decisions are functions of (plan, message ordinal, gate index) only.
/// Every mutating entry point is internally synchronised, so concurrent
/// rank threads can consult one injector; log() and totals() return
/// references and must only be read between parallel regions.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// How message ordinals are counted.
  ///
  /// kGlobal (default, the serial engine): one counter over every message
  /// the cluster carries, in program order — `drop@M` means the Mth message
  /// of the run. Meaningless under concurrent ranks, where the interleaving
  /// of senders is scheduling-dependent.
  ///
  /// kPerSender (the threaded engine): each sender has its own 1-based
  /// ordinal and its own RNG stream (derived from the plan seed and the
  /// sender id), making every verdict a pure function of (plan, sender,
  /// per-sender ordinal) — thread-safe and ordering-stable per rank no
  /// matter how the scheduler interleaves senders. `drop@M:R` means the Mth
  /// message *sent by rank R*; a message spec without a rank binds to
  /// sender 0.
  enum class OrdinalScope { kGlobal, kPerSender };
  void set_scope(OrdinalScope scope) {
    std::lock_guard<std::mutex> lk(m_);
    scope_ = scope;
  }
  [[nodiscard]] OrdinalScope scope() const {
    std::lock_guard<std::mutex> lk(m_);
    return scope_;
  }

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
  /// are one-shot and the draws come from a dedicated seeded stream, so a
  /// rollback-and-replay neither re-corrupts nor perturbs message faults.
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
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  /// Stream for `from` under kPerSender: lazily seeded from the plan seed
  /// and the sender id, so it is a pure function of both. Call under m_.
  Rng& rng_for_sender(rank_t from);

  FaultPlan plan_;
  std::vector<bool> fired_;  // one-shot latch per spec
  std::vector<rank_t> dead_;
  Rng rng_;
  Rng bitflip_rng_;  // separate stream: bitflips never shift message draws
  OrdinalScope scope_ = OrdinalScope::kGlobal;
  std::uint64_t message_counter_ = 0;
  std::map<rank_t, std::uint64_t> sender_counters_;  // kPerSender ordinals
  std::map<rank_t, Rng> sender_rngs_;                // kPerSender streams
  std::uint64_t current_gate_ = 0;
  GateFaultCharges gate_charges_;
  Totals totals_;
  std::vector<FaultEvent> log_;
  mutable std::mutex m_;
};

}  // namespace qsv
