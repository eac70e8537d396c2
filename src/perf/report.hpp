// Run reports: what the paper reads off SLURM plus the derived quantities.
#pragma once

#include <cstdint>

#include "cluster/cluster.hpp"
#include "machine/job.hpp"

namespace qsv {

/// Runtime attribution in the same three buckets as the paper's fig. 5
/// profiles: MPI, memory access, computation.
struct PhaseBreakdown {
  double compute_s = 0;
  double memory_s = 0;
  double mpi_s = 0;

  [[nodiscard]] double total() const { return compute_s + memory_s + mpi_s; }
  [[nodiscard]] double mpi_fraction() const {
    const double t = total();
    return t > 0 ? mpi_s / t : 0;
  }
  [[nodiscard]] double memory_fraction() const {
    const double t = total();
    return t > 0 ? memory_s / t : 0;
  }
  [[nodiscard]] double compute_fraction() const {
    const double t = total();
    return t > 0 ? compute_s / t : 0;
  }
};

struct RunReport {
  JobConfig job;

  double runtime_s = 0;
  /// Node energy as the SLURM counters report it.
  double node_energy_j = 0;
  /// The paper's network estimate E_net = n_s * P_s * dt.
  double switch_energy_j = 0;
  /// Accounting cost in CU (node-hours x class rate).
  double cu = 0;

  PhaseBreakdown phases;

  std::uint64_t gates = 0;
  std::uint64_t local_gates = 0;       // fully-local + local-memory
  std::uint64_t distributed_gates = 0;
  CommStats traffic;

  /// Sweep-executor reporting (informational; never priced): cache-tiled
  /// runs seen, and full statevector passes they avoided versus
  /// gate-by-gate execution.
  std::uint64_t sweep_runs = 0;
  std::uint64_t sweep_passes_saved = 0;

  /// Overlapped-pipeline accounting (all zero unless the run used
  /// CommPolicy::kOverlapped with more than one chunk in flight): exchanges
  /// that streamed chunks through the double-buffered pipeline, and the
  /// wire time their combines hid — (C−1)/C · min(t_comm, t_combine) per
  /// exchange, already subtracted from runtime_s / phases.mpi_s above.
  std::uint64_t overlapped_exchanges = 0;
  double overlap_saved_s = 0;

  /// Fault-recovery accounting (all zero on fault-free runs): retried
  /// exchange traffic and injected straggler/backoff delay, priced into
  /// runtime_s / node_energy_j above.
  std::uint64_t retry_bytes = 0;
  std::uint64_t retry_messages = 0;
  double fault_delay_s = 0;

  /// Integrity-guard accounting — the "price of trust" (all zero when
  /// guards are off): invariant checks priced, their wall time, and their
  /// share of node energy (already included in the totals above).
  std::uint64_t guard_checks = 0;
  double guard_s = 0;
  double guard_energy_j = 0;

  /// Elastic-recovery accounting (all zero on fault-free runs): recovery
  /// actions priced (substitute/shrink/restart kRecovery events), their
  /// checkpoint-read I/O and re-shard network traffic, wall time and share
  /// of node energy (already included in the totals above).
  std::uint64_t recovery_events = 0;
  std::uint64_t recovery_io_bytes = 0;
  std::uint64_t recovery_net_bytes = 0;
  double recovery_s = 0;
  double recovery_energy_j = 0;

  /// Tolerated-degradation accounting (kWarning events — e.g. a checkpoint
  /// write that failed and was skipped): count, wall time of the abandoned
  /// I/O, and its share of node energy (included in the totals above).
  std::uint64_t warnings = 0;
  double warning_s = 0;
  double warning_energy_j = 0;

  [[nodiscard]] double total_energy_j() const {
    return node_energy_j + switch_energy_j;
  }
  /// Average per-gate figures (used for Table 1 / fig 4 rows).
  [[nodiscard]] double time_per_gate() const {
    return gates > 0 ? runtime_s / static_cast<double>(gates) : 0;
  }
  [[nodiscard]] double energy_per_gate() const {
    return gates > 0 ? total_energy_j() / static_cast<double>(gates) : 0;
  }
};

}  // namespace qsv
