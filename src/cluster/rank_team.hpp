// The rank runtime: one persistent OS thread per rank.
//
// The serial engine iterates ranks on the calling thread; with a RankTeam
// each rank's share of a gate runs concurrently on its own worker, so
// exchanges really overlap and the mailboxes carry concurrent traffic. The
// orchestration (gate planning, fault ticks, event emission, reductions,
// recovery) stays on the calling thread between parallel regions — that is
// what keeps floating-point summation order, and therefore the state,
// bitwise identical to the serial engine.
//
// run() is a fork/join region: workers execute fn(rank) for each rank and
// the caller blocks until all are done (the engine's barrier point). A
// worker's exception is captured and the lowest-rank one is rethrown from
// run(), mirroring the serial engine's ascending-rank iteration order.
//
// One CPU budget: a worker owns as many CPUs as its loop width, the
// caller's width divided by the workers. A pinned worker (compact,
// scatter) is pinned to that many CPUs, so the loops it opens run on CPUs
// of its own. An unpinned worker that finishes a region polls for the next
// one for a short budget before it blocks, so it is still on its CPU when
// the next region starts instead of being woken onto one another rank is
// using; it polls only when the team fits the CPUs the caller may use.
//
// pair_arrive() is a two-party combining rendezvous keyed by the lower rank
// of an exchanging pair: both sides deposit their round outcome (failed /
// timed out / fatal) and both observe the OR of the two, so coordinated
// retry decisions are symmetric — no one-sided retry can desynchronise a
// pair. Fault-free exchanges never call it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/topology.hpp"

namespace qsv {

class RankTeam {
 public:
  /// Spawns `num_workers` threads. Each worker's loop width
  /// (common/parallel.hpp) is the constructing thread's width divided by
  /// `num_workers`, at least 1, so rank-parallel kernels share the CPUs the
  /// caller may use instead of oversubscribing them. Under kCompact and
  /// kScatter each worker pins itself to that many CPUs of `topo`
  /// (plan_placement; failures are recorded, not fatal). Under kNone the
  /// workers poll between regions when workers × width fits the caller's
  /// affinity mask (allowed_cpus); otherwise they block at once.
  RankTeam(int num_workers, const HostTopology& topo, PlacementPolicy policy);
  ~RankTeam();

  RankTeam(const RankTeam&) = delete;
  RankTeam& operator=(const RankTeam&) = delete;

  /// Runs fn(r) for r in [0, count) on the worker threads and joins.
  /// `count` must not exceed workers() — after a shrink the extra workers
  /// simply idle. Rethrows the lowest-rank captured exception, if any.
  void run(int count, const std::function<void(int)>& fn);

  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size());
  }
  /// Workers that successfully pinned to their planned CPUs.
  [[nodiscard]] int pinned() const { return pinned_; }
  [[nodiscard]] const PlacementPlan& plan() const { return plan_; }
  /// True when idle workers poll for the next region before they block.
  [[nodiscard]] bool polls() const { return polls_; }

  /// Combined outcome of one exchange round as both pair members saw it.
  struct PairOutcome {
    bool any_fail = false;   // at least one side caught a CommFault
    bool any_timed = false;  // at least one side's fault was a timeout
    bool any_fatal = false;  // at least one side hit NodeFailure
  };

  /// Two-party rendezvous for the exchanging pair whose lower rank is
  /// `pair_id`: blocks until both members have arrived, then both see the
  /// OR-combination of the deposited flags. Reusable round after round
  /// (the same two threads are the only parties, so rounds cannot overlap).
  /// `timeout_s` > 0 bounds the wait — a peer that died of something other
  /// than a communication fault must not hang its partner; expiry throws
  /// qsv::Error. <= 0 waits indefinitely.
  PairOutcome pair_arrive(int pair_id, bool fail, bool timed, bool fatal,
                          double timeout_s = 0);

 private:
  void worker_main(int index);
  /// Returns the first ticket other than `seen`, polling first when the
  /// team polls; returns at once once stop_ is set.
  std::uint64_t await_ticket(std::uint64_t seen);

  PlacementPlan plan_;
  int worker_width_ = 1;
  bool polls_ = false;
  int pinned_ = 0;

  // Fork/join state. run() writes job_ and resets errors_, then publishes
  // the region by storing ticket_ (a generation count in the high 32 bits,
  // the region's rank count in the low 32) with release order, all under m_
  // so a worker blocked on cv_work_ cannot miss it. A polling worker reads
  // ticket_ without the lock; its acquire load is what makes job_ visible,
  // so the job must be written before the ticket. Workers report back
  // through done_ under m_.
  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<bool> stop_{false};
  std::uint64_t generation_ = 0;  // the orchestrator's alone
  int done_ = 0;
  int started_ = 0;  // workers past their init (pinning) phase
  const std::function<void(int)>* job_ = nullptr;
  std::vector<std::exception_ptr> errors_;

  struct PairSlot {
    std::mutex m;
    std::condition_variable cv;
    int arrived = 0;
    std::uint64_t epoch = 0;
    bool fail = false;
    bool timed = false;
    bool fatal = false;
    PairOutcome result;
  };
  std::vector<std::unique_ptr<PairSlot>> pair_slots_;

  std::vector<std::thread> threads_;
};

}  // namespace qsv
