// The distributed statevector engine: QuEST's execution model over the
// virtual cluster.
//
// The statevector is split evenly across 2^k ranks (one rank per simulated
// node, as in all the paper's experiments); the top k qubits select the
// rank. Every rank owns a communication buffer of the same size as its
// slice — the paper's "additional buffers are required in the MPI
// implementation, doubling the overall memory requirement". A single rank
// never exchanges and owns none, as the machine model's per_node_bytes
// assumes.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "cluster/cluster.hpp"
#include "cluster/faults.hpp"
#include "cluster/rank_team.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dist/events.hpp"
#include "dist/options.hpp"
#include "dist/plan.hpp"
#include "sv/statevector.hpp"
#include "sv/storage.hpp"
#include "sv/sweep.hpp"

namespace qsv {

/// Bounded retry of faulted exchanges (exercised only when a FaultInjector
/// is attached; fault-free transport never retries). A dropped or corrupted
/// chunk is re-sent up to kMaxRetries times; exhaustion surfaces as a typed
/// NodeFailure. Each attempt is charged an exponential backoff
/// (0.1 s * 2^attempt) as idle time.
inline constexpr int kMaxRetries = 3;

/// Watchdog deadline a receive waits before declaring CommTimeout. The
/// retry layer charges the deadline as idle time on every timed-out receive
/// (fault-free runs never time out, so this is zero-delta).
inline constexpr double kRecvDeadlineS = 0.5;

template <class S>
class DistStateVector {
 public:
  /// Initialises |0...0> split over `num_ranks` (a power of two) ranks.
  DistStateVector(int num_qubits, int num_ranks, DistOptions opts = {});

  [[nodiscard]] int num_qubits() const { return num_qubits_; }
  [[nodiscard]] int num_ranks() const { return cluster_.num_ranks(); }
  [[nodiscard]] int local_qubits() const { return local_qubits_; }
  [[nodiscard]] amp_index local_amps() const {
    return amp_index{1} << local_qubits_;
  }
  [[nodiscard]] const DistOptions& options() const { return opts_; }

  void init_zero_state();
  void init_basis_state(amp_index index);

  /// Mirrors the amplitudes of a single-address-space state (test utility).
  void init_from(const BasicStateVector<S>& sv);

  void apply(const Gate& g);
  void apply(const Circuit& c);

  /// Applies one planned run (see plan_sweep_runs) — either a cache-tiled
  /// sweep or a gate-by-gate stretch. apply(Circuit) is exactly a loop over
  /// these; exposing the step lets drivers with deadlines or cancellation
  /// (qsv run --deadline-s, the serve executor) stop between runs, the
  /// safe points where every rank's slice reflects the same gate prefix.
  void apply_run(const Circuit& c, const GateRun& run);

  /// Re-applies `g` (and its decomposition) to rank `r`'s slice only: the
  /// rebuilt rank's solo catch-up replay after a spare-node substitution.
  /// Requires every sub-gate to run locally (see gate_runs_local). Emits
  /// ordinary kLocalGate events at a 1/num_ranks participating fraction —
  /// one node computing, the rest idle — and neither advances
  /// gates_applied() nor consults the fault plan: the replay is invisible
  /// to gate-indexed specs, whose one-shot latches stay fired anyway.
  void apply_to_rank(const Gate& g, rank_t r);

  /// True when `g` (after decomposition at the current width) involves no
  /// distributed exchange — the condition for a solo replay to be possible.
  [[nodiscard]] bool gate_runs_local(const Gate& g) const;

  /// Mailbox re-bind when a spare node takes over rank `r`: drops every
  /// queued message touching the rank in either direction, so the
  /// replacement can never consume a stale pre-failure payload.
  void rebind_rank(rank_t r);

  /// Re-shards to `new_ranks`, half or double the current width, as
  /// ReshardPlan describes. Each high-half move goes through the cluster,
  /// CRC-checked and retried on transient faults like any exchange, while
  /// the cluster sits at the wider width. Transactional: a fault past the
  /// retry budget leaves the slices, the width and the cluster as they were
  /// and rethrows. Threaded, each new slice is allocated first-touch on its
  /// own rank thread, and the engine never grows past the width it was
  /// constructed at. Returns the executed plan.
  ReshardPlan reshard(int new_ranks, rank_t rebuilt = -1);

  [[nodiscard]] cplx amplitude(amp_index global) const;
  void set_amplitude(amp_index global, cplx v);

  /// Rank `r`'s resident amplitudes, global indices r * local_amps() up to
  /// (r + 1) * local_amps(). For whole-state passes (digests, snapshots,
  /// diagonal observables) that would otherwise go through amplitude() one
  /// index at a time; the mutable form is for restoring a snapshot in place.
  [[nodiscard]] const S& slice(rank_t r) const;
  [[nodiscard]] S& slice(rank_t r);

  /// Reduction across ranks, as QuEST computes it (local sums + allreduce).
  [[nodiscard]] real_t probability_of_one(qubit_t qubit) const;
  [[nodiscard]] real_t norm_sq() const;

  /// Measures and collapses (uses the same reduction + local scaling).
  int measure(qubit_t qubit, Rng& rng);

  /// Gathers the full state into a single-address-space statevector
  /// (test/example utility; register must be small).
  [[nodiscard]] BasicStateVector<S> gather() const;

  /// Ground-truth traffic counters from the virtual cluster.
  [[nodiscard]] const CommStats& comm_stats() const {
    return cluster_.stats();
  }

  /// Attaches an event listener (cost model or test recorder); may be null.
  void set_listener(ExecListener* listener) { listener_ = listener; }
  [[nodiscard]] ExecListener* listener() const { return listener_; }

  /// Attaches a fault injector (cluster/faults.hpp); null restores perfect
  /// transport. Injected node failures surface as NodeFailure at the gate
  /// boundary; dropped/corrupted messages are retried up to kMaxRetries
  /// times before escalating to NodeFailure. Each rank sends the same
  /// messages in the same order on both engines, so a spec fires on the
  /// same message and the run records the same events and totals whether
  /// or not ranks run as threads.
  void set_fault_injector(FaultInjector* injector) {
    injector_ = injector;
    cluster_.set_fault_injector(injector);
  }
  [[nodiscard]] FaultInjector* fault_injector() const { return injector_; }

  /// Engine gate applications so far (post-decomposition; the index the
  /// fault plan's `fail@G` specs refer to).
  [[nodiscard]] std::uint64_t gates_applied() const { return gates_applied_; }

  /// Clears in-flight messages after a failure, so a restart-from-checkpoint
  /// resumes on a quiescent transport.
  void reset_transport() { cluster_.reset_queues(); }

  /// Counters over every cache-tiled sweep run executed so far.
  [[nodiscard]] const SweepStats& sweep_stats() const { return sweep_stats_; }

  /// CRC-32 over rank `r`'s resident amplitudes (the guard layer's slice
  /// signature: captured at checkpoints, verified after restores).
  [[nodiscard]] std::uint32_t slice_crc(rank_t r) const;

  /// True when options().threading selected the ranks-as-threads engine.
  [[nodiscard]] bool threaded() const { return team_ != nullptr; }

  /// What the threaded runtime actually did (for the CLI summary line and
  /// tests); `enabled` false on the serial engine, other fields default.
  struct ThreadSummary {
    bool enabled = false;
    int threads = 0;
    PlacementPolicy placement = PlacementPolicy::kNone;
    int pinned = 0;   // workers that landed on their planned CPU
    int domains = 1;  // NUMA domains discovered on the host
    int cpus = 1;     // CPUs discovered on the host
  };
  [[nodiscard]] ThreadSummary thread_summary() const;

 private:
  /// One rank's side of a pairwise exchange: `me` posts its chunks to
  /// `peer` and consumes the peer's chunks into its own buffers.
  struct Side {
    rank_t me;
    rank_t peer;
  };
  /// What one exchange streams, in whole amplitudes: `total` per direction
  /// in messages of at most `chunk`, the peer's landing in the recv buffer
  /// from index 0. A full exchange packs from the slice. A half exchange
  /// (`gather` set) first gathers each side's outgoing half into the upper
  /// half of its recv buffer and packs from there.
  struct Shape {
    amp_index total = 0;
    amp_index chunk = 0;
    /// Combine regions must start on multiples of this (a power of two): 1
    /// for elementwise combines, 2^(a+1) for a SWAP reading partner
    /// amplitude flip_bit(i, a).
    amp_index align = 1;
    std::function<void(rank_t me)> gather;
  };
  /// Combines side `me`'s landed amplitudes [first, first + count).
  using RegionFn =
      std::function<void(rank_t me, amp_index first, amp_index count)>;

  /// The one pairwise exchange step. Each side posts its chunks to its peer
  /// (tagged with the chunk index), consumes the peer's chunks in order and
  /// combines every landed region through kern::apply_over_frontier, in
  /// increasing order and with the serial arithmetic, so every policy and
  /// engine produces the same bits. The threaded engine passes one side (the
  /// peer's thread runs the mirror step); the serial engine passes both
  /// sides of a pair and interleaves them per chunk. The policy picks only
  /// the wait point and the retry unit (docs/COMMS.md).
  void exchange_step(std::span<const Side> sides, const Shape& shape,
                     const RegionFn& combine);
  /// Picks the distributed gate's shape and combine, then runs
  /// exchange_step for every sending pair (serial) or rank (threaded).
  void apply_distributed(const Gate& g, const OpPlan& plan);
  /// Runs fn(r) for r in [0, count): on the rank threads when threaded (so
  /// each rank first-touches what it allocates), in ascending order on the
  /// calling thread otherwise. Either way every rank runs, and the lowest
  /// rank's exception, if any, is rethrown once all have finished: a pair
  /// whose exchange fails does not stop the other pairs' exchanges.
  void for_each_rank(int count, const std::function<void(int)>& fn);
  /// Rebuilds the recv buffers for the current width.
  void resize_buffers();
  void apply_sweep_run(const Circuit& c, std::size_t first,
                       std::size_t count);
  void emit(const ExecEvent& e);
  /// Consults the injector at a gate boundary; throws NodeFailure if a
  /// planned failure fires at this index, and applies any silent bitflips
  /// due at it (kBitFlip specs corrupt resident memory, not messages).
  void tick_gate();
  /// Runs attempt(a) for a = 0, 1, ... with bounded retry on transient comm
  /// faults; `messages`/`bytes` are what one retry of the unit costs, and
  /// a fault purges `tag` (or the whole pair for kAnyTag) before the next
  /// attempt re-sends. With `pair_sync` null the caller runs both sides of
  /// the pair in one attempt. Otherwise both pair members run this loop
  /// concurrently, rendezvous on the combined outcome and retry or throw
  /// together; the lower rank purges and records the single retry charge.
  /// Without an injector, attempt(0) runs once with no rendezvous.
  template <class Fn>
  void with_retry(rank_t r, rank_t peer, int tag, int messages,
                  std::uint64_t bytes, RankTeam* pair_sync, Fn&& attempt);

  int num_qubits_;
  int local_qubits_;
  DistOptions opts_;
  VirtualCluster cluster_;
  std::vector<S> slices_;       // one per rank
  std::vector<S> recv_bufs_;    // the doubling MPI buffers; none on one rank
  /// Ranks-as-threads runtime (null on the serial engine).
  std::unique_ptr<RankTeam> team_;
  int numa_domains_ = 1;
  int host_cpus_ = 1;
  SweepStats sweep_stats_;
  ExecListener* listener_ = nullptr;
  FaultInjector* injector_ = nullptr;
  std::uint64_t gates_applied_ = 0;
};

using DistStateVectorSoa = DistStateVector<SoaStorage>;

extern template class DistStateVector<SoaStorage>;

}  // namespace qsv
