#include "perf/cost_model.hpp"

#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "perf/gate_costs.hpp"

namespace qsv {

CostModel::CostModel(const MachineModel& machine, JobConfig job)
    : machine_(machine), job_(job) {
  QSV_REQUIRE(job_.nodes >= 1, "job without nodes");
  acc_.job = job_;
}

void CostModel::reset() {
  acc_ = RunReport{};
  acc_.job = job_;
  timeline_.clear();
}

void CostModel::sample(MachineModel::Phase phase, double duration,
                       double node_watts) {
  if (!record_timeline_ || duration <= 0) {
    return;
  }
  // Switch draw is continuous; fold it into each segment so the timeline
  // integral equals node energy + E_net. Segments are recorded in order, so
  // the next segment starts where the previous one ended.
  const double switches =
      machine_.switch_count(job_.nodes) * machine_.switches.power_w;
  const double t_start = timeline_.empty()
                             ? 0.0
                             : timeline_.back().t_start_s +
                                   timeline_.back().duration_s;
  timeline_.push_back(
      PowerSample{t_start, duration, phase, node_watts + switches});
}

void CostModel::charge_local(double mem_t, double comp_t, double fraction,
                             double stall_t) {
  const double duration = mem_t + comp_t + stall_t;
  acc_.runtime_s += duration;
  acc_.phases.memory_s += mem_t + stall_t;
  acc_.phases.compute_s += comp_t;

  const double active = job_.nodes * fraction;
  const double idle = job_.nodes - active;
  const double p_active = machine_.node_power(MachineModel::Phase::kLocal,
                                              job_.freq, job_.node_kind);
  const double p_stall = machine_.node_power(MachineModel::Phase::kStall,
                                             job_.freq, job_.node_kind);
  const double p_idle = machine_.node_power(MachineModel::Phase::kIdle,
                                            job_.freq, job_.node_kind);
  acc_.node_energy_j += (mem_t + comp_t) * active * p_active +
                        stall_t * active * p_stall +
                        duration * idle * p_idle;
  sample(MachineModel::Phase::kLocal, mem_t + comp_t,
         active * p_active + idle * p_idle);
  sample(MachineModel::Phase::kStall, stall_t,
         active * p_stall + idle * p_idle);
}

double CostModel::charge_mpi(double t, double fraction) {
  const double active = job_.nodes * fraction;
  const double idle = job_.nodes - active;
  const double p_mpi = machine_.node_power(MachineModel::Phase::kMpi,
                                           job_.freq, job_.node_kind);
  const double p_idle = machine_.node_power(MachineModel::Phase::kIdle,
                                            job_.freq, job_.node_kind);
  const double energy = t * (active * p_mpi + idle * p_idle);
  acc_.runtime_s += t;
  acc_.phases.mpi_s += t;
  acc_.node_energy_j += energy;
  sample(MachineModel::Phase::kMpi, t, active * p_mpi + idle * p_idle);
  return energy;
}

void CostModel::charge_faults(const ExecEvent& e) {
  // Zero on fault-free runs. Retried traffic is priced exactly like the
  // movement it repeats, and straggler/backoff delay is idle time across
  // the whole job.
  if (e.retry_bytes > 0 || e.retry_messages > 0) {
    charge_mpi(machine_.exchange_time(static_cast<double>(e.retry_bytes),
                                      e.retry_messages, e.policy, job_.nodes),
               e.participating_fraction);
    acc_.retry_bytes += e.retry_bytes;
    acc_.retry_messages += static_cast<std::uint64_t>(e.retry_messages);
  }
  if (e.fault_delay_s > 0) {
    const double p_idle = machine_.node_power(MachineModel::Phase::kIdle,
                                              job_.freq, job_.node_kind);
    acc_.runtime_s += e.fault_delay_s;
    acc_.phases.mpi_s += e.fault_delay_s;
    acc_.node_energy_j += e.fault_delay_s * job_.nodes * p_idle;
    acc_.fault_delay_s += e.fault_delay_s;
    sample(MachineModel::Phase::kIdle, e.fault_delay_s,
           job_.nodes * p_idle);
  }
}

void CostModel::on_event(const ExecEvent& e) {
  if (e.kind == ExecEvent::Kind::kSweep) {
    // Tiled runs change how local gates stream through the cache, not what
    // the model charges: pricing stays anchored to the per-gate events that
    // follow. Record the run so reports can show memory passes saved.
    ++acc_.sweep_runs;
    if (e.sweep_gates > 1) {
      acc_.sweep_passes_saved += static_cast<std::uint64_t>(e.sweep_gates - 1);
    }
    return;
  }
  if (e.kind == ExecEvent::Kind::kGuard) {
    // The price of trust: invariant checks stream the slice (memory), run
    // the norm accumulation (compute), optionally CRC the slice bytes at
    // the integrity rate, and meet in a scalar allreduce (MPI). Every rank
    // participates; a guard check is not a gate.
    ++acc_.guard_checks;
    const double mem_t = machine_.mem_time(
        static_cast<double>(e.guard_bytes_per_rank), job_.freq);
    double crc_t = 0;
    if (e.guard_crc_bytes_per_rank > 0) {
      QSV_REQUIRE(machine_.integrity.crc_bw_bytes_per_s > 0,
                  "integrity CRC bandwidth unset");
      crc_t = static_cast<double>(e.guard_crc_bytes_per_rank) /
              machine_.integrity.crc_bw_bytes_per_s;
    }
    const double comp_t = machine_.compute_time(
        static_cast<double>(e.guard_flops_per_rank), job_.freq);
    const double sync_t =
        e.guard_sync ? machine_.allreduce_time(job_.nodes) : 0.0;

    acc_.runtime_s += mem_t + crc_t + comp_t + sync_t;
    acc_.phases.memory_s += mem_t + crc_t;
    acc_.phases.compute_s += comp_t;
    acc_.phases.mpi_s += sync_t;

    const double p_local = machine_.node_power(MachineModel::Phase::kLocal,
                                               job_.freq, job_.node_kind);
    const double p_mpi = machine_.node_power(MachineModel::Phase::kMpi,
                                             job_.freq, job_.node_kind);
    const double energy = (mem_t + crc_t + comp_t) * job_.nodes * p_local +
                          sync_t * job_.nodes * p_mpi;
    acc_.node_energy_j += energy;
    acc_.guard_s += mem_t + crc_t + comp_t + sync_t;
    acc_.guard_energy_j += energy;
    sample(MachineModel::Phase::kLocal, mem_t + crc_t + comp_t,
           job_.nodes * p_local);
    sample(MachineModel::Phase::kMpi, sync_t, job_.nodes * p_mpi);
    return;
  }
  if (e.kind == ExecEvent::Kind::kRecovery) {
    // Elastic recovery: checkpoint-slice reads (I/O phase) and re-shard
    // movement (network phase) arrive as separate events, each naming the
    // fraction of nodes doing the work — the rest idle at the resume
    // barrier. The rebuilt rank's solo replay is priced by its ordinary
    // kLocalGate events, not here.
    ++acc_.recovery_events;
    const double active = job_.nodes * e.participating_fraction;
    const double idle = job_.nodes - active;
    const double p_idle = machine_.node_power(MachineModel::Phase::kIdle,
                                              job_.freq, job_.node_kind);
    if (e.recovery_io_bytes > 0) {
      QSV_REQUIRE(machine_.filesystem.read_bw_bytes_per_s > 0,
                  "filesystem read bandwidth unset");
      const double t_io = static_cast<double>(e.recovery_io_bytes) /
                          machine_.filesystem.read_bw_bytes_per_s;
      const double p_io = machine_.node_power(MachineModel::Phase::kIo,
                                              job_.freq, job_.node_kind);
      acc_.runtime_s += t_io;
      acc_.phases.memory_s += t_io;
      const double energy = t_io * (active * p_io + idle * p_idle);
      acc_.node_energy_j += energy;
      acc_.recovery_s += t_io;
      acc_.recovery_energy_j += energy;
      acc_.recovery_io_bytes += e.recovery_io_bytes;
      sample(MachineModel::Phase::kIo, t_io, active * p_io + idle * p_idle);
    }
    if (e.recovery_bytes_per_rank > 0) {
      const double t_net = machine_.exchange_time(
          static_cast<double>(e.recovery_bytes_per_rank),
          e.recovery_messages_per_rank, e.policy, job_.nodes);
      const double energy = charge_mpi(t_net, e.participating_fraction);
      acc_.recovery_s += t_net;
      acc_.recovery_energy_j += energy;
      acc_.recovery_net_bytes += e.recovery_bytes_per_rank;
    }
    // A re-shard move that faulted was retried like an exchange round, and
    // a restart carries the retries of the exchange it recovers.
    charge_faults(e);
    return;
  }
  if (e.kind == ExecEvent::Kind::kWarning) {
    // A tolerated degradation (e.g. a skipped checkpoint after a write
    // failure): charge the I/O time the abandoned attempt burned. Unlike a
    // recovery read, a warning must never abort pricing, so a model with no
    // write bandwidth simply prices the event at zero.
    ++acc_.warnings;
    if (e.warning_io_bytes > 0 &&
        machine_.filesystem.write_bw_bytes_per_s > 0) {
      const double active = job_.nodes * e.participating_fraction;
      const double idle = job_.nodes - active;
      const double p_idle = machine_.node_power(MachineModel::Phase::kIdle,
                                                job_.freq, job_.node_kind);
      const double p_io = machine_.node_power(MachineModel::Phase::kIo,
                                              job_.freq, job_.node_kind);
      const double t_io = static_cast<double>(e.warning_io_bytes) /
                          machine_.filesystem.write_bw_bytes_per_s;
      acc_.runtime_s += t_io;
      acc_.phases.memory_s += t_io;
      const double energy = t_io * (active * p_io + idle * p_idle);
      acc_.node_energy_j += energy;
      acc_.warning_s += t_io;
      acc_.warning_energy_j += energy;
      sample(MachineModel::Phase::kIo, t_io, active * p_io + idle * p_idle);
    }
    return;
  }
  ++acc_.gates;
  const double slice_bytes =
      static_cast<double>(e.local_amps) * kBytesPerAmp;
  const int local_qubits =
      bits::log2_exact(static_cast<std::uint64_t>(e.local_amps));

  if (e.kind == ExecEvent::Kind::kLocalGate) {
    ++acc_.local_gates;
    const GateCost c = local_gate_cost(e.gate);
    const double numa =
        is_pair_kernel(e.gate)
            ? machine_.numa_mult(e.local_target, local_qubits)
            : 1.0;
    // NUMA-stride overrun is charged as stalled time (lower power: the
    // paper's Table 1 shows energy rising far less than runtime on the top
    // local qubits).
    const double mem_base =
        machine_.mem_time(slice_bytes * c.mem_passes, job_.freq, 1.0);
    const double stall_t =
        machine_.mem_time(slice_bytes * c.mem_passes, job_.freq, numa) -
        mem_base;
    const double comp_t = machine_.compute_time(
        static_cast<double>(e.local_amps) * c.flops_per_amp, job_.freq);
    charge_local(mem_base, comp_t, e.participating_fraction, stall_t);
    return;
  }

  // Distributed gate: exchange + combine.
  ++acc_.distributed_gates;

  // Combine cost, computed first because the overlapped policy hides part
  // of the wire time behind it.
  const OpPlan::Combine combine =
      e.gate == GateKind::kSwap
          ? (e.local_target < 0 ? OpPlan::Combine::kSwapTwoHigh
                                : OpPlan::Combine::kSwapOneHigh)
          : OpPlan::Combine::kMatrix1;
  const GateCost c = combine_cost(combine, e.half_exchange);
  // The combine reads/writes sequentially (the pairing is across ranks),
  // so no NUMA stride penalty applies.
  const double combine_mem_t =
      machine_.mem_time(slice_bytes * c.mem_passes, job_.freq, 1.0);
  const double combine_comp_t = machine_.compute_time(
      static_cast<double>(e.local_amps) * c.flops_per_amp, job_.freq);

  double t_comm = machine_.exchange_time(
      static_cast<double>(e.bytes_per_rank), e.messages_per_rank, e.policy,
      job_.nodes);

  // Overlapped pipeline: with C chunks in flight, the combine of chunk k
  // runs while chunks k+1.. are on the wire, so all but the first chunk of
  // the shorter leg is hidden — the steady-state pipelined-chunk relation
  // t_exposed = t_comm − (C−1)/C · min(t_comm, t_combine). The combine
  // itself is still charged in full below; only the wire time the combine
  // shadows is removed, and retry traffic stays fully exposed (a retried
  // chunk stalls the frontier).
  if (e.overlap_chunks > 1) {
    const double chunks = static_cast<double>(e.overlap_chunks);
    const double hidden = (chunks - 1.0) / chunks *
                          std::min(t_comm, combine_mem_t + combine_comp_t);
    t_comm -= hidden;
    acc_.overlap_saved_s += hidden;
    ++acc_.overlapped_exchanges;
  }
  charge_mpi(t_comm, e.participating_fraction);
  charge_faults(e);

  charge_local(combine_mem_t, combine_comp_t, e.participating_fraction,
               /*stall_t=*/0);
}

RunReport CostModel::report() const {
  RunReport r = acc_;
  r.switch_energy_j = machine_.switch_energy(job_.nodes, r.runtime_s);
  r.cu = cu_cost(machine_, job_, r.runtime_s);
  return r;
}

}  // namespace qsv
