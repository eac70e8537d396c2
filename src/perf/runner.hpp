// Convenience runners binding circuit -> engine -> cost model -> report, and
// run_circuit: the one driver `qsv run`, the serve executor and the examples
// run a circuit through.
#pragma once

#include <cstdint>
#include <string>

#include "circuit/circuit.hpp"
#include "common/stop.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/options.hpp"
#include "dist/recovery_policy.hpp"
#include "machine/archer2.hpp"
#include "machine/job.hpp"
#include "machine/machine.hpp"
#include "perf/report.hpp"

namespace qsv {

/// Prices `circuit` on `job` using the trace engine (no amplitude storage;
/// works at the paper's full 33-44 qubit scale). One rank per node.
[[nodiscard]] RunReport run_model(const Circuit& circuit,
                                  const MachineModel& machine,
                                  const JobConfig& job,
                                  const DistOptions& opts = {});

/// Runs `circuit` functionally on a small register (<= ~24 qubits) with the
/// same cost model attached, so correctness and cost can be checked on one
/// execution. Returns the report; amplitudes are discarded.
[[nodiscard]] RunReport run_functional_model(const Circuit& circuit,
                                             const MachineModel& machine,
                                             const JobConfig& job,
                                             const DistOptions& opts = {});

/// Layout-independent CRC-32 of the state in global amplitude order, as
/// eight hex digits. It matches across rank counts, engines and policies:
/// `qsv run` prints it as `state crc32:` and `qsv serve` answers it as
/// `digest`.
template <class S>
[[nodiscard]] std::string state_digest(const DistStateVector<S>& sv);

/// How run_circuit drives a circuit. The defaults run it plain and to
/// completion.
struct RunSpec {
  /// The verified path's knobs (run_verified). The run takes that path when
  /// checkpointing or guards are on, or when the engine has a fault
  /// injector attached; otherwise it runs the sweep plan run by run.
  CheckpointOptions checkpoint;
  GuardOptions guards;
  RecoveryPolicy recovery;
  ElasticOptions elastic;
  /// Polled at every safe point: sweep-run boundaries on the plain path,
  /// gate boundaries on the verified one. Null never stops.
  const StopToken* stop = nullptr;
  /// What a stopped run's applied prefix is priced on (run_model, at the
  /// engine's starting rank count and exchange options).
  MachineModel machine = archer2();
};

/// How a run ended. Node failures no tier recovers (NodeFailure) and
/// integrity aborts (IntegrityAbort) are thrown, not returned.
struct RunOutcome {
  enum class Status {
    kOk,        // completed at the planned rank count
    kDegraded,  // completed below it: a shrink that never grew back
    kStopped,   // the stop token fired at a safe point
  };
  Status status = Status::kOk;
  /// Whether run_verified drove the run.
  bool verified = false;
  /// The verified path's counters (default on the plain path and when
  /// stopped).
  IntegrityStats integrity;
  /// state_digest of the final state; empty when stopped.
  std::string digest;
  /// Circuit gates applied: all of them, or the prefix a stop left.
  std::uint64_t gates_done = 0;
  /// Stopped runs only: why, and the modeled cost of the applied prefix.
  std::string stop_reason;
  RunReport partial;
};

/// Runs `c` on `sv` (already configured: options, fault injector, listener)
/// on the plain or the verified path, polls `spec.stop`, and digests the
/// final state. A stop leaves `sv` at the applied prefix and returns it
/// priced in `partial`.
template <class S>
[[nodiscard]] RunOutcome run_circuit(DistStateVector<S>& sv, const Circuit& c,
                                     const RunSpec& spec = {});

}  // namespace qsv
