// Invariant guards: oracle-free detection of silent state corruption.
//
// Transport corruption is caught end-to-end by per-message CRC-32
// (cluster/cluster.hpp); what no transport checksum can catch is a bit
// flipping in a rank's *resident* slice (DRAM/cache upset). The only
// oracle-free detectors available to a statevector simulation are its
// physical invariants — chiefly norm conservation: every gate is unitary,
// so ‖ψ‖² stays 1 to rounding. A StateGuard checks that invariant at a
// configurable cadence and raises GuardViolation when it drifts; the
// recovery policy (dist/recovery_policy.hpp) converts the violation into a
// rollback to the last verified checkpoint. Corruption on the
// memory→disk→memory path is the snapshot's to catch: every checkpoint
// read is CRC-verified (dist/snapshot.hpp).
//
// Coverage note: a flip of a sign bit (bit 63 or 127 of the packed
// amplitude) changes no magnitude and therefore escapes the norm check;
// flips in low mantissa bits may drift less than the tolerance. The
// ablation harness reports this residual escape rate — trust has both a
// price and a coverage, and we measure both.
//
// Cost: every check is charged through a kGuard ExecEvent naming the slice
// size; the cost model prices the slice stream, the norm accumulation and
// the allreduce from it. Guards off (cadence 0) emits nothing, so
// fault-free runs are bit- and cost-identical to the unguarded engine.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/types.hpp"
#include "dist/dist_statevector.hpp"

namespace qsv {

struct GuardOptions {
  /// Circuit gates between invariant checks; 0 disables the guard layer
  /// entirely (no checks, no events, zero cost-model delta). A check
  /// asserts |‖ψ‖² - 1| <= 1e-9; one also runs just before each checkpoint
  /// is written, so rollback targets are verified state ("last *verified*
  /// checkpoint").
  std::uint64_t cadence_gates = 0;

  [[nodiscard]] bool enabled() const { return cadence_gates > 0; }
};

/// The norm invariant failed: the typed error the recovery policy converts
/// into a rollback (or an abort when no checkpoint exists to roll back to).
/// The norm is a global invariant, so a violation names no rank.
class GuardViolation : public Error {
 public:
  GuardViolation(const std::string& what, std::uint64_t gate)
      : Error(what), gate_(gate) {}

  /// Circuit-gate index of the check that fired.
  [[nodiscard]] std::uint64_t gate() const { return gate_; }

 private:
  std::uint64_t gate_;
};

struct GuardStats {
  std::uint64_t checks = 0;      // invariant checks executed
  std::uint64_t violations = 0;  // checks that raised GuardViolation
};

/// Runs the configured invariant checks against a DistStateVector and
/// charges each one through the engine's event listener.
template <class S>
class StateGuard {
 public:
  StateGuard(DistStateVector<S>& sv, GuardOptions opts)
      : sv_(sv), opts_(opts) {}

  /// True when a check is due after `gates_done` circuit gates.
  [[nodiscard]] bool due(std::uint64_t gates_done) const {
    return opts_.enabled() && gates_done > 0 &&
           gates_done % opts_.cadence_gates == 0;
  }

  /// Runs the norm check; `gate_index` is the circuit gate just applied
  /// (for violation reporting). Throws GuardViolation on drift.
  void check(std::uint64_t gate_index);

  [[nodiscard]] const GuardStats& stats() const { return stats_; }

 private:
  DistStateVector<S>& sv_;
  GuardOptions opts_;
  GuardStats stats_;
};

extern template class StateGuard<SoaStorage>;

}  // namespace qsv
