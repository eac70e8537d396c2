#include "circuit/sweep_plan.hpp"

#include <algorithm>

#include "circuit/locality.hpp"
#include "common/error.hpp"

namespace qsv {

bool is_sweepable(const Gate& g, int tile_qubits) {
  return classify_gate(g, tile_qubits) != GateLocality::kDistributed;
}

GateRun next_sweep_run(const std::vector<Gate>& gates, std::size_t first,
                       std::size_t end, int local_qubits,
                       const SweepOptions& opts) {
  QSV_REQUIRE(local_qubits >= 1, "slices hold at least 2 amplitudes");
  QSV_REQUIRE(opts.tile_qubits >= 1, "tiles hold at least 2 amplitudes");
  QSV_REQUIRE(first < end && end <= gates.size(), "gate run out of range");

  // A forward scan over consecutive sweepable gates, in stream order: the
  // planner never commutes gates, so it cannot reorder non-commuting ones.
  std::size_t j = first;
  if (opts.enabled) {
    const int t = std::min(opts.tile_qubits, local_qubits);
    while (j < end && is_sweepable(gates[j], t)) {
      ++j;
    }
  }
  if (j - first >= kMinSweepRun) {
    return GateRun{first, j - first, true};
  }
  return GateRun{first, 1, false};
}

std::vector<GateRun> plan_sweep_runs(const std::vector<Gate>& gates,
                                     int local_qubits,
                                     const SweepOptions& opts) {
  std::vector<GateRun> runs;
  for (std::size_t i = 0; i < gates.size();) {
    const GateRun run =
        next_sweep_run(gates, i, gates.size(), local_qubits, opts);
    if (!run.sweep && !runs.empty() && !runs.back().sweep) {
      runs.back().count += run.count;  // merge adjacent gate-by-gate gates
    } else {
      runs.push_back(run);
    }
    i += run.count;
  }
  return runs;
}

}  // namespace qsv
