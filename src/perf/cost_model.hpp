// The cost model: prices the engine's execution events on a machine model,
// integrating runtime, per-phase attribution and node energy exactly as the
// paper measures them (SLURM node counters + the analytic switch term).
#pragma once

#include <vector>

#include "dist/events.hpp"
#include "machine/job.hpp"
#include "machine/machine.hpp"
#include "perf/report.hpp"

namespace qsv {

/// One segment of the job's aggregate power draw over simulated time.
struct PowerSample {
  double t_start_s = 0;
  double duration_s = 0;
  MachineModel::Phase phase{};
  /// Total draw across all nodes and switches during the segment.
  double power_w = 0;
};

class CostModel final : public ExecListener {
 public:
  /// `machine` and `job` must outlive the model. The job's node count must
  /// equal the engine's rank count (one rank per node, as in the paper).
  CostModel(const MachineModel& machine, JobConfig job);

  void on_event(const ExecEvent& e) override;

  /// Report for everything priced so far. `local_qubits` of the engine is
  /// inferred per event; gate counts come from the event stream.
  [[nodiscard]] RunReport report() const;

  void reset();

  /// Opt-in power-over-time recording (one sample per charged segment,
  /// switch power included). Integrating the timeline reproduces the
  /// report's total energy exactly — asserted by tests.
  void enable_timeline() { record_timeline_ = true; }
  [[nodiscard]] const std::vector<PowerSample>& timeline() const {
    return timeline_;
  }

 private:
  void charge_local(double mem_t, double comp_t, double fraction,
                    double stall_t);
  /// Charges `t` seconds of MPI-phase work on `fraction` of the nodes, the
  /// rest idling; returns the node energy.
  double charge_mpi(double t, double fraction);
  /// Prices an exchange's or a re-shard's retried traffic and fault delay.
  void charge_faults(const ExecEvent& e);
  void sample(MachineModel::Phase phase, double duration, double node_watts);

  const MachineModel& machine_;
  JobConfig job_;
  RunReport acc_;
  bool record_timeline_ = false;
  std::vector<PowerSample> timeline_;
};

}  // namespace qsv
