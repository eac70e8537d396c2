#include "harness/integrity.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/format.hpp"
#include "common/types.hpp"
#include "dist/events.hpp"
#include "dist/resilience.hpp"
#include "harness/experiments.hpp"
#include "machine/job.hpp"
#include "perf/cost_model.hpp"
#include "perf/resilience_model.hpp"
#include "perf/runner.hpp"

namespace qsv {

double guard_check_s(const MachineModel& m, int qubits, int nodes) {
  QSV_REQUIRE(qubits >= 1 && qubits < 63, "bad qubit count");
  QSV_REQUIRE(nodes >= 1, "need at least one node");
  JobConfig job;
  job.num_qubits = qubits;
  job.nodes = nodes;
  CostModel cost(m, job);
  ExecEvent check;
  check.kind = ExecEvent::Kind::kGuard;
  check.local_amps = (amp_index{1} << qubits) / static_cast<amp_index>(nodes);
  cost.on_event(check);
  return cost.report().guard_s;
}

double optimal_guard_cadence_s(double check_s, double sdc_rate_per_s) {
  QSV_REQUIRE(check_s > 0, "guard check cost must be positive");
  QSV_REQUIRE(sdc_rate_per_s > 0, "SDC rate must be positive");
  // Overhead (T/tau) g balanced against latency loss lambda T tau / 2:
  // the guard-cadence analogue of Young's checkpoint formula.
  return std::sqrt(2 * check_s / sdc_rate_per_s);
}

IntegritySweepResult experiment_integrity_sweep(const MachineModel& m) {
  QSV_REQUIRE(m.reliability.node_mtbf_s > 0,
              "integrity sweep needs a finite node MTBF "
              "(reliability.node_mtbf_s)");

  IntegritySweepResult res;
  res.table = Table(
      "Guard cadence vs expected energy under silent corruption "
      "(24 h QFT campaign, checkpointing at the Daly optimum; "
      "* = analytic optimum cadence)");
  res.table.header({"qubits", "nodes", "sdc/node-h", "cadence", "checks",
                    "overhead", "E[sdc]", "latency", "lost work", "E[wall]",
                    "E[energy]", "vs opt"});

  for (const auto& [qubits, nodes] :
       std::vector<std::pair<int, int>>{{43, 2048}, {44, 4096}}) {
    JobConfig job;
    job.num_qubits = qubits;
    job.node_kind = NodeKind::kStandard;
    job.freq = CpuFreq::kMedium2000;
    job.nodes = nodes;

    // A single QFT solves in minutes; the regime where both checkpointing
    // and guarding pay is the multi-hour campaign. Scale one priced QFT to
    // a ~24 h workload (the campaign is reps identical circuits, so runtime
    // and node energy scale linearly).
    const RunReport once = run_model(builtin_qft(qubits), m, job);
    const double reps = std::max(1.0, std::ceil(24 * 3600 / once.runtime_s));
    const double solve_s = once.runtime_s * reps;
    const double solve_energy_j = once.total_energy_j() * reps;
    const double solve_node_w = once.node_energy_j / once.runtime_s;

    const double g = guard_check_s(m, qubits, nodes);
    const double delta = checkpoint_write_s(m, qubits);
    const double tau_c = daly_interval_s(m.system_mtbf_s(nodes), delta);
    res.configs.push_back(
        IntegritySweepResult::Config{qubits, nodes, g, tau_c});

    const double ckpt_io_s = solve_s / tau_c * delta;
    const double restore_s = restart_cost_s(m, qubits);
    const double switches_w = m.switch_count(nodes) * m.switches.power_w;
    const double p_local = m.node_power(MachineModel::Phase::kLocal, job.freq,
                                        job.node_kind);
    const double p_idle = m.node_power(MachineModel::Phase::kIdle, job.freq,
                                       job.node_kind);
    const double p_io =
        m.node_power(MachineModel::Phase::kIo, job.freq, job.node_kind);

    for (const double rate_per_node_hour : {1e-5, 1e-4}) {
      const double lambda = rate_per_node_hour * nodes / 3600.0;
      const double tau_opt = optimal_guard_cadence_s(g, lambda);
      double opt_energy = 0;  // filled by the mult == 1.0 row (added first)

      auto add = [&](double cadence_s, bool optimum) {
        IntegritySweepResult::Row row;
        row.qubits = qubits;
        row.nodes = nodes;
        row.sdc_per_node_hour = rate_per_node_hour;
        row.cadence_s = cadence_s;
        row.optimum = optimum;
        row.checks =
            cadence_s > 0 ? std::ceil(solve_s / cadence_s) : 1.0;
        row.overhead_s = row.checks * g;
        row.expected_sdc = lambda * solve_s;
        // Detected half a cadence late on average; end-of-run-only checks
        // detect half the campaign late.
        row.detect_latency_s = cadence_s > 0 ? cadence_s / 2 : solve_s / 2;
        // Rollback replays from the last verified checkpoint: half a
        // checkpoint segment plus the detection latency, per event.
        row.lost_work_s =
            row.expected_sdc * (tau_c / 2 + row.detect_latency_s);
        row.wall_s = solve_s + ckpt_io_s + row.overhead_s +
                     row.lost_work_s + row.expected_sdc * restore_s;
        row.energy_j = solve_energy_j +
                       ckpt_io_s * (nodes * p_io + switches_w) +
                       row.overhead_s * (nodes * p_local + switches_w) +
                       row.lost_work_s * (solve_node_w + switches_w) +
                       row.expected_sdc * restore_s *
                           (nodes * p_idle + switches_w);
        if (optimum) {
          opt_energy = row.energy_j;
        }
        res.table.row(
            {std::to_string(qubits), std::to_string(nodes),
             fmt::fixed(rate_per_node_hour * 1e5, 0) + "e-5",
             cadence_s > 0 ? fmt::seconds(cadence_s) + (optimum ? " *" : "")
                           : "end-only",
             fmt::fixed(row.checks, 0), fmt::seconds(row.overhead_s),
             fmt::fixed(row.expected_sdc, 2),
             fmt::seconds(row.detect_latency_s),
             fmt::seconds(row.lost_work_s), fmt::seconds(row.wall_s),
             fmt::energy_j(row.energy_j),
             opt_energy > 0 ? fmt::fixed(row.energy_j / opt_energy, 3)
                            : "-"});
        res.rows.push_back(std::move(row));
      };

      add(tau_opt, true);  // first, so every row can report "vs opt"
      add(0.0, false);     // end-of-run check only
      for (const double mult : {0.125, 0.5, 2.0, 8.0}) {
        add(tau_opt * mult, false);
      }
    }
  }
  return res;
}

}  // namespace qsv
