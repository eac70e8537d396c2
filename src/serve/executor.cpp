#include "serve/executor.hpp"

#include "cluster/faults.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/recovery_policy.hpp"
#include "perf/runner.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "sv/storage.hpp"

namespace qsv::serve {

ExecResult execute_job(QueuedJob& job, const MachineModel& machine,
                       const AdmissionLimits& limits, double queue_s) {
  ExecResult result;
  const Circuit& c = job.plan->circuit;
  try {
    DistOptions opts;
    opts.policy = limits.policy;
    DistStateVector<SoaStorage> sv(job.num_qubits, job.ranks, opts);

    // A deadline that elapsed while the job queued stops before any gate —
    // still a typed "deadline" response with a zero-gate prefix.
    RunSpec spec;
    spec.stop = &job.token;
    spec.machine = machine;
    const RunOutcome out = run_circuit(sv, c, spec);

    const bool stopped = out.status == RunOutcome::Status::kStopped;
    // A stopped job reports the priced prefix, a finished one the plan's
    // full-run estimate.
    const RunReport& cost = stopped ? out.partial : job.plan->estimate;
    JsonObject o;
    o["id"] = job.id;
    o["gates"] = static_cast<std::uint64_t>(c.size());
    o["ranks"] = job.ranks;
    o["runtime_s"] = cost.runtime_s;
    o["energy_j"] = cost.total_energy_j();
    o["queue_s"] = queue_s;
    if (stopped) {
      o["status"] = "deadline";
      o["gates_done"] = out.gates_done;
    } else {
      o["status"] = "ok";
      o["digest"] = out.digest;
      o["cache"] = job.cache_hit ? "hit" : "miss";
    }
    result.status =
        stopped ? ExecResult::Status::kDeadline : ExecResult::Status::kOk;
    result.response_line = Json(std::move(o)).dump();
    result.energy_j = cost.total_energy_j();
    return result;
  } catch (const IntegrityAbort& e) {
    result.response_line = make_error_response(job.id, "integrity", e.what());
  } catch (const NodeFailure& e) {
    result.response_line =
        make_error_response(job.id, "node_failure", e.what());
  } catch (const Error& e) {
    result.response_line = make_error_response(job.id, "internal", e.what());
  } catch (const std::exception& e) {
    result.response_line = make_error_response(job.id, "internal", e.what());
  }
  result.status = ExecResult::Status::kError;
  return result;
}

}  // namespace qsv::serve
