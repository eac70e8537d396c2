#include "dist/trace.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace qsv {

TraceSim::TraceSim(int num_qubits, int num_ranks, DistOptions opts)
    : num_qubits_(num_qubits),
      num_ranks_(num_ranks),
      local_qubits_(num_qubits -
                    bits::log2_exact(static_cast<std::uint64_t>(num_ranks))),
      opts_(opts) {
  QSV_REQUIRE(num_qubits >= 1 && num_qubits <= 62,
              "trace engine supports 1..62 qubits");
  QSV_REQUIRE(bits::is_pow2(static_cast<std::uint64_t>(num_ranks)),
              "rank count must be a power of two");
  QSV_REQUIRE(local_qubits_ >= 1, "each rank must hold at least 2 amplitudes");
  QSV_REQUIRE(opts_.max_message_bytes >= kBytesPerAmp,
              "message cap below one amplitude");
}

void TraceSim::apply(const Gate& g) {
  QSV_REQUIRE(g.max_qubit() < num_qubits_, "gate qubit out of range");
  for_each_planned(g, num_qubits_, local_qubits_, opts_,
                   [&](const Gate& leaf, const OpPlan& plan) {
    switch (plan.locality) {
      case GateLocality::kFullyLocal: ++counts_.fully_local; break;
      case GateLocality::kLocalMemory: ++counts_.local_memory; break;
      case GateLocality::kDistributed: ++counts_.distributed; break;
    }
    // The cluster counters the functional engine would record (all zero
    // for a local gate).
    stats_.messages +=
        plan.sending_ranks * static_cast<std::uint64_t>(plan.messages);
    stats_.bytes += plan.sending_ranks * plan.exchange_bytes;
    stats_.max_message_bytes =
        std::max(stats_.max_message_bytes, plan.max_message_bytes);
    emit(gate_event(leaf.kind, plan, local_qubits_, opts_));
  });
}

void TraceSim::apply(const Circuit& c) {
  QSV_REQUIRE(c.num_qubits() == num_qubits_, "register size mismatch");
  // The functional engine's sweep grouping: one kSweep announcement per
  // tiled run, then the unchanged per-gate events.
  for (const GateRun& run :
       plan_sweep_runs(c.gates(), local_qubits_, opts_.sweep)) {
    if (run.sweep) {
      emit(sweep_event(c.gate(run.first).kind, run.count, local_qubits_,
                       opts_));
    }
    for (std::size_t i = 0; i < run.count; ++i) {
      apply(c.gate(run.first + i));
    }
  }
}

void TraceSim::emit(const ExecEvent& e) {
  if (listener_ != nullptr) {
    listener_->on_event(e);
  }
}

}  // namespace qsv
