#include "dist/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/error.hpp"
#include "common/log.hpp"
#include "dist/snapshot.hpp"

namespace qsv {

double daly_interval_s(double mtbf_s, double checkpoint_s) {
  QSV_REQUIRE(mtbf_s > 0, "MTBF must be positive");
  QSV_REQUIRE(checkpoint_s > 0, "checkpoint cost must be positive");
  if (checkpoint_s >= 2 * mtbf_s) {
    return mtbf_s;  // checkpointing costs more than the expected loss
  }
  const double x = checkpoint_s / (2 * mtbf_s);
  return std::sqrt(2 * checkpoint_s * mtbf_s) *
             (1 + std::sqrt(x) / 3 + x / 9) -
         checkpoint_s;
}

std::uint64_t interval_to_gates(double interval_s, double seconds_per_gate) {
  QSV_REQUIRE(seconds_per_gate > 0, "per-gate time must be positive");
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(interval_s / seconds_per_gate));
}

template <class S>
RecoveryStats run_with_recovery(DistStateVector<S>& sv, const Circuit& c,
                                const CheckpointOptions& opts) {
  QSV_REQUIRE(c.num_qubits() == sv.num_qubits(), "register size mismatch");
  RecoveryStats stats;

  if (opts.interval_gates == 0) {
    // Resilience off: run straight through; a NodeFailure propagates.
    for (std::size_t i = 0; i < c.size(); ++i) {
      sv.apply(c.gate(i));
    }
    stats.completed = true;
    if (FaultInjector* inj = sv.fault_injector()) {
      stats.faults = inj->log();
    }
    return stats;
  }

  // A failed checkpoint write (disk full, unwritable directory) must not
  // kill a healthy run: warn, stop writing, and keep the last committed
  // snapshot as the restart target. With nothing ever committed, a later
  // NodeFailure propagates exactly as with checkpointing off.
  std::optional<CheckpointStore> store;
  bool ckpt_writable = true;
  auto warn_ckpt_failure = [&](const std::string& what) {
    ckpt_writable = false;
    ++stats.checkpoint_write_failures;
    QSV_WARN("checkpoint write failed, continuing uncheckpointed: " << what);
  };
  try {
    store.emplace(opts.dir.empty() ? std::string(".") : opts.dir,
                  opts.keep_last);
  } catch (const std::exception& e) {
    warn_ckpt_failure(e.what());
  }

  bool have_ckpt = false;
  auto save_ckpt = [&](std::size_t gates) -> bool {
    if (!ckpt_writable) {
      return false;
    }
    try {
      save_state(store->path_for(gates), sv);
    } catch (const Error& e) {
      warn_ckpt_failure(e.what());
      return false;
    }
    store->committed(gates);
    have_ckpt = true;
    ++stats.checkpoints_written;
    return true;
  };
  save_ckpt(0);
  std::size_t ckpt_gate = 0;  // circuit gates completed at the checkpoint

  std::size_t i = 0;
  while (i < c.size()) {
    try {
      sv.apply(c.gate(i));
      ++i;
      if (i % opts.interval_gates == 0 && i < c.size() && save_ckpt(i)) {
        ckpt_gate = i;
      }
    } catch (const NodeFailure&) {
      ++stats.restarts;
      if (!have_ckpt) {
        throw;  // nothing ever committed: same contract as checkpointing off
      }
      if (stats.restarts > opts.max_restarts) {
        if (!opts.keep_checkpoints) {
          store->clear();
        }
        throw;
      }
      // Replacement node comes up; clear in-flight messages and dead set,
      // reload the last good snapshot and replay from there.
      sv.reset_transport();
      if (FaultInjector* inj = sv.fault_injector()) {
        inj->restart();
      }
      load_state(store->path_for(ckpt_gate), sv);
      stats.gates_replayed += i - ckpt_gate;
      i = ckpt_gate;
    }
  }

  stats.completed = true;
  if (FaultInjector* inj = sv.fault_injector()) {
    stats.faults = inj->log();
  }
  if (store.has_value() && !opts.keep_checkpoints) {
    store->clear();
  }
  return stats;
}

template RecoveryStats run_with_recovery<SoaStorage>(
    DistStateVector<SoaStorage>&, const Circuit&, const CheckpointOptions&);

}  // namespace qsv
