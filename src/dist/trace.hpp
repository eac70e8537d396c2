// Trace engine: records the schedule the functional engine executes
// (dist/plan.hpp: the gate walk, exchange plans, chunking and events)
// without allocating amplitudes, so the paper's 33-44 qubit runs can be
// priced at full scale.
//
// Invariant (tested): for the same circuit, decomposition and options, the
// ExecEvent stream and the traffic totals match the functional engine's.
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "dist/events.hpp"
#include "dist/options.hpp"
#include "dist/plan.hpp"

namespace qsv {

class TraceSim {
 public:
  /// Registers up to 62 qubits (indices are 64-bit; nothing is allocated).
  TraceSim(int num_qubits, int num_ranks, DistOptions opts = {});

  [[nodiscard]] int num_qubits() const { return num_qubits_; }
  [[nodiscard]] int num_ranks() const { return num_ranks_; }
  [[nodiscard]] int local_qubits() const { return local_qubits_; }
  [[nodiscard]] amp_index local_amps() const {
    return amp_index{1} << local_qubits_;
  }
  [[nodiscard]] const DistOptions& options() const { return opts_; }

  void apply(const Gate& g);
  void apply(const Circuit& c);

  /// Traffic totals the functional engine's cluster would record.
  [[nodiscard]] const CommStats& comm_stats() const { return stats_; }

  /// Per-locality gate tallies.
  struct OpCounts {
    std::uint64_t fully_local = 0;
    std::uint64_t local_memory = 0;
    std::uint64_t distributed = 0;
  };
  [[nodiscard]] const OpCounts& op_counts() const { return counts_; }

  void set_listener(ExecListener* listener) { listener_ = listener; }

 private:
  void emit(const ExecEvent& e);

  int num_qubits_;
  int num_ranks_;
  int local_qubits_;
  DistOptions opts_;
  CommStats stats_;
  OpCounts counts_;
  ExecListener* listener_ = nullptr;
};

}  // namespace qsv
