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
// rollback to the last verified checkpoint.
//
// Optionally the guard also fingerprints each slice with a CRC-32
// ("signature"), captured when a checkpoint is written and re-verified
// after a restore — catching corruption on the memory→disk→memory path
// that the norm check alone would attribute to the replay.
//
// Coverage note: a flip of a sign bit (bit 63 or 127 of the packed
// amplitude) changes no magnitude and therefore escapes the norm check;
// flips in low mantissa bits may drift less than the tolerance. The
// ablation harness reports this residual escape rate — trust has both a
// price and a coverage, and we measure both.
//
// Cost: every check is charged through a kGuard ExecEvent (slice bytes
// streamed, FLOPs for the norm accumulation, CRC bytes, and whether the
// check ends in an allreduce). Guards off (cadence 0) emits nothing, so
// fault-free runs are bit- and cost-identical to the unguarded engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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
  /// Fingerprint each slice with CRC-32 when a checkpoint is written and
  /// verify the fingerprint after a restore (catches corruption on the
  /// memory->disk->memory path).
  bool slice_crc = false;

  [[nodiscard]] bool enabled() const { return cadence_gates > 0; }
};

/// A state invariant failed: the typed error the recovery policy converts
/// into a rollback (or an abort when no checkpoint exists to roll back to).
class GuardViolation : public Error {
 public:
  GuardViolation(const std::string& what, rank_t rank, std::uint64_t gate)
      : Error(what), rank_(rank), gate_(gate) {}

  /// Rank the violation localises to; -1 for a global invariant (norm).
  [[nodiscard]] rank_t rank() const { return rank_; }
  /// Circuit-gate index of the check that fired.
  [[nodiscard]] std::uint64_t gate() const { return gate_; }

 private:
  rank_t rank_;
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

  [[nodiscard]] const GuardOptions& options() const { return opts_; }

  /// True when a check is due after `gates_done` circuit gates.
  [[nodiscard]] bool due(std::uint64_t gates_done) const {
    return opts_.enabled() && gates_done > 0 &&
           gates_done % opts_.cadence_gates == 0;
  }

  /// Runs the configured checks; `gate_index` is the circuit gate just
  /// applied (for violation reporting). Throws GuardViolation on drift.
  void check(std::uint64_t gate_index);

  /// Per-slice CRC-32 fingerprint of the current state.
  [[nodiscard]] std::vector<std::uint32_t> signature() const;

  /// Captures the current signature (called when a checkpoint is written);
  /// charged as a CRC-only guard event.
  void capture_signature();

  /// Verifies the restored state against the signature captured at the
  /// matching checkpoint write. No-op when slice_crc is off or nothing was
  /// captured. Throws GuardViolation naming the mismatching rank.
  void verify_restore(std::uint64_t gate_index);

  /// Drops the captured signature. Called after a shrink-to-survive
  /// re-shard: the per-rank fingerprints describe the old width, so
  /// verify_restore no-ops until the next checkpoint write recaptures at
  /// the new width.
  void invalidate_signature() { signature_.clear(); }

  [[nodiscard]] const GuardStats& stats() const { return stats_; }

 private:
  void emit_event(bool norm, bool crc) const;

  DistStateVector<S>& sv_;
  GuardOptions opts_;
  std::vector<std::uint32_t> signature_;
  GuardStats stats_;
};

extern template class StateGuard<SoaStorage>;

}  // namespace qsv
