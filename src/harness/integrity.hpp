// Guard-cadence ablation: the energy "price of trust" against the expected
// cost of silent data corruption, swept next to the Daly checkpoint
// optimum at the paper's headline configurations.
//
// The trade-off mirrors Young/Daly: checking the norm invariant every
// tau_g seconds costs (T/tau_g) * g of overhead, while an SDC striking at
// rate lambda is detected tau_g/2 late on average and rolls the run back.
// Balancing overhead against expected detection latency gives the
// guard-cadence analogue of Young's formula, tau_g* = sqrt(2 g / lambda).
#pragma once

#include <vector>

#include "common/table.hpp"
#include "machine/machine.hpp"

namespace qsv {

/// Wall-clock cost of one norm check (slice stream + accumulation + scalar
/// allreduce) for a `qubits`-qubit state split over `nodes` ranks: one
/// kGuard event priced by the cost model.
[[nodiscard]] double guard_check_s(const MachineModel& m, int qubits,
                                   int nodes);

/// The cadence minimising overhead + expected detection-latency loss:
/// tau_g* = sqrt(2 * check_s / sdc_rate_per_s).
[[nodiscard]] double optimal_guard_cadence_s(double check_s,
                                             double sdc_rate_per_s);

struct IntegritySweepResult {
  struct Row {
    int qubits = 0;
    int nodes = 0;
    /// Silent-corruption rate swept (events per node-hour).
    double sdc_per_node_hour = 0;
    /// Seconds between guard checks; 0 = end-of-run check only.
    double cadence_s = 0;
    /// True on the analytic-optimum cadence row.
    bool optimum = false;
    double checks = 0;            // guard checks over the campaign
    double overhead_s = 0;        // guard wall time
    double expected_sdc = 0;      // expected corruption events
    double detect_latency_s = 0;  // mean corruption-to-detection delay
    double lost_work_s = 0;       // expected rollback replay time
    double wall_s = 0;
    double energy_j = 0;
  };
  std::vector<Row> rows;
  Table table;

  struct Config {
    int qubits = 0;
    int nodes = 0;
    double guard_check_s = 0;   // cost of one check at this scale
    double daly_interval_s = 0; // checkpoint interval the sweep sits beside
  };
  std::vector<Config> configs;
};

/// Sweeps guard cadence at {1/8, 1/2, 1, 2, 8} x the analytic optimum
/// (plus an end-of-run-only baseline) across SDC rates for 24 h QFT
/// campaigns at the paper's headline configurations, with checkpointing
/// fixed at the Daly optimum. Requires a finite node MTBF.
[[nodiscard]] IntegritySweepResult experiment_integrity_sweep(
    const MachineModel& m);

}  // namespace qsv
