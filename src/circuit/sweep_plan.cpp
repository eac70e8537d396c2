#include "circuit/sweep_plan.hpp"

#include <algorithm>

#include "circuit/locality.hpp"
#include "common/error.hpp"

namespace qsv {

bool is_sweepable(const Gate& g, int tile_qubits) {
  return classify_gate(g, tile_qubits) != GateLocality::kDistributed;
}

std::vector<GateRun> plan_sweep_runs(const std::vector<Gate>& gates,
                                     int local_qubits,
                                     const SweepOptions& opts) {
  QSV_REQUIRE(local_qubits >= 1, "slices hold at least 2 amplitudes");
  QSV_REQUIRE(opts.tile_qubits >= 1, "tiles hold at least 2 amplitudes");

  std::vector<GateRun> runs;
  if (gates.empty()) {
    return runs;
  }
  if (!opts.enabled) {
    runs.push_back(GateRun{0, gates.size(), false});
    return runs;
  }

  const int t = std::min(opts.tile_qubits, local_qubits);

  // Single forward scan; consecutive sweepable gates accumulate into a
  // candidate run, demoted to gate-by-gate execution when too short.
  // Runs are emitted strictly in stream order — the planner never commutes
  // gates, so it cannot reorder non-commuting ones.
  std::size_t i = 0;
  auto emit = [&runs](std::size_t first, std::size_t count, bool sweep) {
    if (count == 0) {
      return;
    }
    if (!sweep && !runs.empty() && !runs.back().sweep &&
        runs.back().first + runs.back().count == first) {
      runs.back().count += count;  // merge adjacent gate-by-gate segments
      return;
    }
    runs.push_back(GateRun{first, count, sweep});
  };

  while (i < gates.size()) {
    if (!is_sweepable(gates[i], t)) {
      emit(i, 1, false);
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < gates.size() && is_sweepable(gates[j], t)) {
      ++j;
    }
    emit(i, j - i, j - i >= kMinSweepRun);
    i = j;
  }
  return runs;
}

}  // namespace qsv
