#include "perf/resilience_model.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "dist/options.hpp"
#include "dist/plan.hpp"
#include "dist/resilience.hpp"

namespace qsv {
namespace {

[[nodiscard]] double state_bytes(int num_qubits) {
  QSV_REQUIRE(num_qubits >= 1 && num_qubits < 63, "bad qubit count");
  return static_cast<double>(std::uint64_t{1} << num_qubits) *
         static_cast<double>(kBytesPerAmp);
}

}  // namespace

double checkpoint_write_s(const MachineModel& m, int num_qubits) {
  QSV_REQUIRE(m.filesystem.write_bw_bytes_per_s > 0,
              "filesystem write bandwidth unset");
  return state_bytes(num_qubits) / m.filesystem.write_bw_bytes_per_s;
}

double checkpoint_read_s(const MachineModel& m, int num_qubits) {
  QSV_REQUIRE(m.filesystem.read_bw_bytes_per_s > 0,
              "filesystem read bandwidth unset");
  return state_bytes(num_qubits) / m.filesystem.read_bw_bytes_per_s;
}

double restart_cost_s(const MachineModel& m, int num_qubits) {
  return m.reliability.requeue_s + checkpoint_read_s(m, num_qubits);
}

ExpectedRun expected_run(const MachineModel& m, const JobConfig& job,
                         const RunReport& fault_free, double interval_s) {
  QSV_REQUIRE(interval_s >= 0, "negative checkpoint interval");
  const double solve = fault_free.runtime_s;
  const double mtbf = m.system_mtbf_s(job.nodes);

  ExpectedRun r;
  r.interval_s = interval_s;
  r.solve_s = solve;
  r.solve_energy_j = fault_free.total_energy_j();
  if (solve <= 0) {
    return r;
  }

  // Checkpointing disabled is Daly's model with one segment spanning the
  // whole run and no dump cost: a failure loses everything done so far.
  const double delta =
      interval_s > 0 ? checkpoint_write_s(m, job.num_qubits) : 0.0;
  const double tau = interval_s > 0 ? std::min(interval_s, solve) : solve;
  const double segments = solve / tau;

  const double ckpt_io = segments * delta;
  double wall = solve + ckpt_io;  // failure-free wall time
  double failures = 0;
  double restart_total = 0;
  double lost = 0;
  const double restart = restart_cost_s(m, job.num_qubits);
  if (std::isfinite(mtbf)) {
    // Daly: T_w = M e^{R/M} (e^{(tau+delta)/M} - 1) T_s / tau.
    wall = mtbf * std::exp(restart / mtbf) *
           std::expm1((tau + delta) / mtbf) * segments;
    failures = wall / mtbf;
    restart_total = failures * restart;
    // What remains above useful work, dumps and restarts is re-executed
    // (lost) work; clamp against rounding at tiny failure rates.
    lost = std::max(0.0, wall - solve - ckpt_io - restart_total);
  }
  r.wall_s = wall;
  r.expected_failures = failures;
  r.checkpoint_io_s = ckpt_io;
  r.restart_s = restart_total;
  r.lost_work_s = lost;

  // Energy. The fault-free report already prices the useful work (nodes +
  // switches). Checkpoint dumps draw I/O-phase power on every node; lost
  // work re-runs the solve at its average draw; requeue/restore time burns
  // idle power. Switch draw is continuous, so it applies to every added
  // second of wall time.
  const double switches_w =
      m.switch_count(job.nodes) * m.switches.power_w;
  const double p_io = m.node_power(MachineModel::Phase::kIo, job.freq,
                                   job.node_kind);
  const double p_idle = m.node_power(MachineModel::Phase::kIdle, job.freq,
                                     job.node_kind);
  const double solve_node_w = fault_free.node_energy_j / solve;

  r.checkpoint_energy_j =
      r.checkpoint_io_s * (job.nodes * p_io + switches_w);
  r.lost_work_energy_j = r.lost_work_s * (solve_node_w + switches_w);
  r.restart_energy_j = restart_total * (job.nodes * p_idle + switches_w);
  return r;
}

namespace {

// Shared per-tier ingredients: phase powers, switch draw, the aggregate
// solve draw from the fault-free report, and the one-rank slice.
struct TierTerms {
  int nodes = 0;
  double sw_w = 0;       // continuous switch draw (W)
  double p_io = 0;       // per-node I/O-phase power
  double p_idle = 0;     // per-node idle power
  double p_mpi = 0;      // per-node MPI-phase power
  double solve_w = 0;    // aggregate node draw during solve (all nodes)
  double slice_bytes = 0;
  double slice_read_s = 0;  // one rank's slice over the filesystem
};

[[nodiscard]] TierTerms tier_terms(const MachineModel& m,
                                   const JobConfig& job,
                                   const RunReport& fault_free) {
  QSV_REQUIRE(job.nodes >= 1, "job without nodes");
  QSV_REQUIRE(m.filesystem.read_bw_bytes_per_s > 0,
              "filesystem read bandwidth unset");
  TierTerms t;
  t.nodes = job.nodes;
  t.sw_w = m.switch_count(job.nodes) * m.switches.power_w;
  t.p_io = m.node_power(MachineModel::Phase::kIo, job.freq, job.node_kind);
  t.p_idle =
      m.node_power(MachineModel::Phase::kIdle, job.freq, job.node_kind);
  t.p_mpi = m.node_power(MachineModel::Phase::kMpi, job.freq, job.node_kind);
  t.solve_w = fault_free.runtime_s > 0
                  ? fault_free.node_energy_j / fault_free.runtime_s
                  : 0.0;
  t.slice_bytes = state_bytes(job.num_qubits) / job.nodes;
  t.slice_read_s = t.slice_bytes / m.filesystem.read_bw_bytes_per_s;
  return t;
}

/// One slice shipped between a pair under the default message cap, priced
/// like a blocking distributed gate: the move each re-shard direction makes.
[[nodiscard]] double slice_move_s(const MachineModel& m, const TierTerms& t) {
  const auto amps = static_cast<amp_index>(t.slice_bytes / kBytesPerAmp);
  return m.exchange_time(t.slice_bytes,
                         messages_for(amps, DistOptions{}.max_message_bytes),
                         CommPolicy::kBlocking, t.nodes);
}

}  // namespace

RecoveryEnergy expected_substitute(const MachineModel& m,
                                   const JobConfig& job,
                                   const RunReport& fault_free,
                                   double replay_s) {
  QSV_REQUIRE(replay_s >= 0, "negative replay time");
  const TierTerms t = tier_terms(m, job, fault_free);
  RecoveryEnergy r;
  r.tier = RecoveryTier::kSubstitute;
  // The spare reads the lost slice while the survivors idle at the resume
  // barrier, then replays the window solo at one node's share of the solve
  // draw. Nothing else moves.
  r.time_s = t.slice_read_s + replay_s;
  r.energy_j =
      t.slice_read_s * (t.p_io + (t.nodes - 1) * t.p_idle + t.sw_w) +
      replay_s * (t.solve_w / t.nodes + (t.nodes - 1) * t.p_idle + t.sw_w);
  return r;
}

RecoveryEnergy expected_shrink(const MachineModel& m, const JobConfig& job,
                               const RunReport& fault_free, double replay_s) {
  const TierTerms t = tier_terms(m, job, fault_free);
  // Rebuild-and-replay is the substitute cost (the partner plays the
  // spare's role); on top, every surviving pair moves one slice so each
  // new rank holds a doubled slice — a full-cluster exchange.
  const RecoveryEnergy base = expected_substitute(m, job, fault_free,
                                                  replay_s);
  const double t_move = slice_move_s(m, t);
  RecoveryEnergy r;
  r.tier = RecoveryTier::kShrink;
  r.time_s = base.time_s + t_move;
  r.energy_j = base.energy_j + t_move * (t.nodes * t.p_mpi + t.sw_w);
  return r;
}

RecoveryEnergy expected_restart(const MachineModel& m, const JobConfig& job,
                                const RunReport& fault_free,
                                double replay_s) {
  QSV_REQUIRE(replay_s >= 0, "negative replay time");
  const TierTerms t = tier_terms(m, job, fault_free);
  const double full_read_s = checkpoint_read_s(m, job.num_qubits);
  RecoveryEnergy r;
  r.tier = RecoveryTier::kRestart;
  // Requeue at idle draw, full-state read-back, then every node replays
  // the lost window at the solve draw.
  r.time_s = m.reliability.requeue_s + full_read_s + replay_s;
  r.energy_j = m.reliability.requeue_s * (t.nodes * t.p_idle + t.sw_w) +
               full_read_s * (t.nodes * t.p_io + t.sw_w) +
               replay_s * (t.solve_w + t.sw_w);
  return r;
}

RecoveryEnergy expected_grow_back(const MachineModel& m, const JobConfig& job,
                                  const RunReport& fault_free,
                                  double replay_s) {
  const TierTerms t = tier_terms(m, job, fault_free);
  // The immediate action is exactly a shrink; when the replacement arrives
  // the inverse re-shard moves one (new-width) slice per surviving pair —
  // the same total bytes as the shrink's merge — at MPI-phase draw again.
  const RecoveryEnergy base = expected_shrink(m, job, fault_free, replay_s);
  const double t_move = slice_move_s(m, t);
  RecoveryEnergy r;
  r.tier = RecoveryTier::kGrowBack;
  r.time_s = base.time_s + t_move;
  r.energy_j = base.energy_j + t_move * (t.nodes * t.p_mpi + t.sw_w);
  return r;
}

double degraded_tail_extra_j(const MachineModel& m, const JobConfig& job,
                             double remaining_solve_s) {
  QSV_REQUIRE(remaining_solve_s >= 0, "negative remaining solve time");
  // Half the nodes do the same work in twice the time: node joules cancel,
  // the continuous switch draw does not — it burns for the extra seconds.
  const double sw_w = m.switch_count(job.nodes) * m.switches.power_w;
  return remaining_solve_s * sw_w;
}

TierEnergies tier_energies_from_machine(const MachineModel& m,
                                        const JobConfig& job,
                                        const RunReport& fault_free,
                                        double replay_s) {
  TierEnergies e;
  e.replay_s = replay_s;
  e.substitute_j = expected_substitute(m, job, fault_free, replay_s).energy_j;
  e.shrink_j = expected_shrink(m, job, fault_free, replay_s).energy_j;
  e.grow_back_j = expected_grow_back(m, job, fault_free, replay_s).energy_j;
  e.restart_j = expected_restart(m, job, fault_free, replay_s).energy_j;
  return e;
}

double spare_pool_energy_j(const MachineModel& m, const JobConfig& job,
                           int spares, double wall_s) {
  QSV_REQUIRE(spares >= 0, "negative spare count");
  QSV_REQUIRE(wall_s >= 0, "negative wall time");
  const double p_idle =
      m.node_power(MachineModel::Phase::kIdle, job.freq, job.node_kind);
  return spares * p_idle * wall_s;
}

}  // namespace qsv
