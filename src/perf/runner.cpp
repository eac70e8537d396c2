#include "perf/runner.hpp"

#include <cstdio>

#include "circuit/sweep_plan.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "dist/trace.hpp"
#include "perf/cost_model.hpp"
#include "sv/simd/simd.hpp"

namespace qsv {

RunReport run_model(const Circuit& circuit, const MachineModel& machine,
                    const JobConfig& job, const DistOptions& opts) {
  QSV_REQUIRE(job.num_qubits == circuit.num_qubits(),
              "job register size does not match the circuit");
  TraceSim sim(circuit.num_qubits(), job.nodes, opts);
  CostModel cost(machine, job);
  sim.set_listener(&cost);
  sim.apply(circuit);

  RunReport r = cost.report();
  r.traffic = sim.comm_stats();
  return r;
}

RunReport run_functional_model(const Circuit& circuit,
                               const MachineModel& machine,
                               const JobConfig& job, const DistOptions& opts) {
  QSV_REQUIRE(job.num_qubits == circuit.num_qubits(),
              "job register size does not match the circuit");
  DistStateVector<SoaStorage> sim(circuit.num_qubits(), job.nodes, opts);
  CostModel cost(machine, job);
  sim.set_listener(&cost);
  sim.apply(circuit);

  RunReport r = cost.report();
  r.traffic = sim.comm_stats();
  r.kernel_backend = simd::backend_name(simd::active_backend());
  return r;
}

template <class S>
std::string state_digest(const DistStateVector<S>& sv) {
  Crc32 crc;
  for (amp_index g = 0; g < (amp_index{1} << sv.num_qubits()); ++g) {
    const cplx a = sv.amplitude(g);
    const double re = a.real();
    const double im = a.imag();
    crc.update(&re, sizeof re);
    crc.update(&im, sizeof im);
  }
  char digest[16];
  std::snprintf(digest, sizeof digest, "%08x", crc.value());
  return digest;
}

template <class S>
RunOutcome run_circuit(DistStateVector<S>& sv, const Circuit& c,
                       const RunSpec& spec) {
  RunOutcome out;
  out.verified = sv.fault_injector() != nullptr ||
                 spec.checkpoint.interval_gates > 0 || spec.guards.enabled();
  const int planned_ranks = sv.num_ranks();
  try {
    if (out.verified) {
      out.integrity = run_verified(sv, c, spec.checkpoint, spec.guards,
                                   spec.recovery, spec.elastic, spec.stop);
    } else {
      std::uint64_t gates_done = 0;
      for (const GateRun& run :
           plan_sweep_runs(c.gates(), sv.local_qubits(), sv.options().sweep)) {
        // Sweep-run boundaries are the plain path's safe points: every
        // rank's slice reflects the same gate prefix there.
        if (spec.stop != nullptr && spec.stop->expired()) {
          const bool cancelled = spec.stop->cancelled();
          throw DeadlineExceeded(
              std::string(cancelled ? "cancelled" : "deadline exceeded") +
                  " at gate " + std::to_string(gates_done) + " of " +
                  std::to_string(c.size()),
              gates_done, c.size(), cancelled);
        }
        sv.apply_run(c, run);
        gates_done += run.count;
      }
    }
  } catch (const DeadlineExceeded& e) {
    // Price the applied prefix on the trace engine, so the joules a stopped
    // run already burned are reported, not discarded.
    out.status = RunOutcome::Status::kStopped;
    out.gates_done = e.gates_done();
    out.stop_reason = e.what();
    Circuit prefix(c.num_qubits(), c.name());
    for (std::uint64_t g = 0; g < e.gates_done(); ++g) {
      prefix.add(c.gate(g));
    }
    JobConfig job;
    job.num_qubits = c.num_qubits();
    job.nodes = planned_ranks;
    out.partial = run_model(prefix, spec.machine, job, sv.options());
    return out;
  }
  out.gates_done = c.size();
  // Both counts stay 0 on the plain path, which never re-shards.
  if (out.integrity.final_ranks < out.integrity.planned_ranks) {
    out.status = RunOutcome::Status::kDegraded;
  }
  out.digest = state_digest(sv);
  return out;
}

template std::string state_digest<SoaStorage>(
    const DistStateVector<SoaStorage>&);
template RunOutcome run_circuit<SoaStorage>(DistStateVector<SoaStorage>&,
                                            const Circuit&, const RunSpec&);

}  // namespace qsv
