// Options controlling the distributed engine's communication behaviour.
#pragma once

#include <cstddef>

#include "circuit/sweep_plan.hpp"
#include "cluster/cluster.hpp"
#include "cluster/topology.hpp"
#include "common/units.hpp"

namespace qsv {

/// Ranks-as-threads execution (cluster/rank_team.hpp). Off by default: the
/// serial engine stays bitwise-identical to previous releases. When on,
/// every rank runs on its own OS thread, exchanges really overlap through
/// the concurrent mailboxes, and results remain bitwise identical to the
/// serial engine (asserted by tests/test_threads.cpp) because all
/// floating-point reductions stay on the orchestrating thread.
struct ThreadOptions {
  /// Rank threads. 0 = serial engine (the default); otherwise must equal
  /// the rank count — the exchange protocol needs every rank live at once,
  /// so a rank cannot share a thread with its peer.
  int threads = 0;

  /// Where rank threads and their first-touched slices land
  /// (QSV_PLACEMENT=compact|scatter|none).
  PlacementPolicy placement = PlacementPolicy::kNone;

  [[nodiscard]] bool enabled() const { return threads > 0; }
};

struct DistOptions {
  /// Exchange flavour: QuEST's blocking Sendrecv chain, the paper's
  /// non-blocking rewrite, or the overlapped chunk pipeline that combines
  /// chunk k while chunk k+1 is still on the wire (docs/COMMS.md).
  CommPolicy policy = CommPolicy::kBlocking;

  /// The paper's future-work optimisation: a distributed SWAP with one local
  /// target only moves the half of each slice whose local bit disagrees,
  /// halving communication.
  bool half_exchange_swaps = false;

  /// MPI message-size cap. ARCHER2's MPI caps messages at 2 GB, giving the
  /// paper's "32 messages are exchanged per distributed gate" at 64 GB per
  /// rank. Tests shrink this to exercise chunking at toy sizes.
  std::size_t max_message_bytes = 2 * units::GiB;

  /// Cache-tiled execution of consecutive local gates (one pass over each
  /// slice per run instead of one per gate). On by default; affects only
  /// how amplitudes are moved, never the result or the cost-model charges.
  SweepOptions sweep;

  /// Bounded retry of faulted exchanges (exercised only when a
  /// FaultInjector is attached; fault-free transport never retries).
  /// A dropped or corrupted chunk is re-sent up to `max_retries` times;
  /// exhaustion surfaces as a typed NodeFailure. Each attempt is charged
  /// an exponential backoff (0.1 s * 2^attempt) as idle time.
  int max_retries = 3;

  /// Watchdog deadline a receive waits before declaring CommTimeout. The
  /// retry layer charges the deadline as idle time on every timed-out
  /// receive (fault-free runs never time out, so this is zero-delta).
  double recv_deadline_s = 0.5;

  /// Ranks-as-threads execution (docs/THREADING.md). Default off.
  ThreadOptions threading;
};

}  // namespace qsv
