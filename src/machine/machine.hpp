// Machine model: the parameterised description of the cluster being
// simulated, instantiated for ARCHER2 in archer2.hpp.
//
// Every constant is calibrated against a measured anchor from the paper
// (see the provenance comments in archer2.hpp and DESIGN.md §5); the model
// is deliberately simple — bytes moved, flops retired, per-phase node
// power — because those are the quantities the paper's experiments vary.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/cluster.hpp"
#include "common/types.hpp"
#include "machine/frequency.hpp"

namespace qsv {

/// Node hardware class (ARCHER2: standard 256 GB vs high-memory 512 GB).
enum class NodeKind { kStandard, kHighMem };

[[nodiscard]] constexpr const char* node_kind_name(NodeKind k) {
  return k == NodeKind::kStandard ? "standard" : "highmem";
}

struct NodeType {
  std::string name;
  std::uint64_t memory_bytes = 0;
  /// Memory available to the application (capacity minus OS/runtime reserve).
  std::uint64_t usable_bytes = 0;
  /// Extra static power of this node class (more DIMMs on high-mem nodes).
  double extra_static_power_w = 0;
  /// Accounting rate in CU per node-hour.
  double cu_rate = 1.0;
  /// How many nodes of this class the machine offers.
  int available = 0;
};

/// Per-frequency scaling of CPU dynamic power. A lookup table rather than a
/// cube law: real DVFS savings flatten at the voltage floor, which is what
/// makes the paper's 1.5 GHz setting pointless (slower at ~equal energy).
struct DvfsCurve {
  double low = 1.0;
  double medium = 1.0;
  double high = 1.0;

  [[nodiscard]] double at(CpuFreq f) const {
    switch (f) {
      case CpuFreq::kLow1500: return low;
      case CpuFreq::kMedium2000: return medium;
      case CpuFreq::kHigh2250: return high;
    }
    return 1.0;
  }
};

struct MemoryParams {
  /// Effective per-node bandwidth for streaming gate kernels at 2.00 GHz.
  double stream_bw_bytes_per_s = 0;
  /// Bandwidth multiplier per frequency (uncore slows with deep downclocks).
  DvfsCurve bw_scale;
  /// Stride penalty multipliers for pair-updating kernels whose target is
  /// one of the top three local qubits (index 0 = topmost local qubit),
  /// where the pair stride spans NUMA domains. Table 1, rows 29-31.
  double numa_penalty[3] = {1.0, 1.0, 1.0};
};

struct ComputeParams {
  /// Effective attained FLOP rate per node at 2.00 GHz (latency-bound gate
  /// arithmetic, far below peak).
  double flops_per_s = 0;
};

struct NetworkParams {
  /// Effective per-rank exchange bandwidth with blocking Sendrecv chunks.
  double bw_blocking_bytes_per_s = 0;
  /// Same with the non-blocking rewrite (pipelined chunks).
  double bw_nonblocking_bytes_per_s = 0;
  /// Per-message overhead.
  double message_latency_s = 0;
  /// Bandwidth degradation per doubling of node count beyond the base:
  /// factor = 1 + per_doubling * log2(nodes / base_nodes), clamped at 1.
  double congestion_per_doubling = 0;
  int congestion_base_nodes = 64;
};

/// Parallel-filesystem parameters for checkpoint I/O (HPE ClusterStor on
/// ARCHER2). Bandwidth is the job-visible aggregate: checkpoint time is
/// state bytes over this figure, independent of node count (the filesystem,
/// not the clients, is the bottleneck at scale).
struct FilesystemParams {
  double write_bw_bytes_per_s = 0;
  double read_bw_bytes_per_s = 0;
};

/// Failure/recovery parameters for expected energy-to-solution accounting.
/// node_mtbf_s = 0 models a failure-free machine (the default for every
/// pre-existing experiment: resilience off means zero cost-model delta).
struct ReliabilityParams {
  /// Mean time between failures of a single node, seconds.
  double node_mtbf_s = 0;
  /// Scheduler requeue + relaunch latency after a failure, seconds.
  double requeue_s = 0;
};

/// Node power during an execution phase: static + dynamic * dvfs(freq).
struct PhasePower {
  double static_w = 0;
  double dynamic_w = 0;
};

struct PowerParams {
  PhasePower local;  // gate kernels (memory + compute bound)
  PhasePower mpi;    // exchange-dominated phases
  PhasePower idle;   // ranks not participating in the current gate
  PhasePower stall;  // NUMA-stalled cycles (long-stride pair updates):
                     // the pipeline starves, so power drops below kLocal
  PhasePower io;     // checkpoint I/O: cores wait on the filesystem, so
                     // draw sits between idle and MPI phases
  DvfsCurve cpu_dvfs;
};

struct SwitchParams {
  int nodes_per_switch = 8;
  double power_w = 235.0;  // typical under-load switch power on ARCHER2
};

struct MachineModel {
  std::string name;
  NodeType standard;
  NodeType highmem;
  MemoryParams memory;
  ComputeParams compute;
  NetworkParams network;
  PowerParams power;
  SwitchParams switches;
  FilesystemParams filesystem;
  ReliabilityParams reliability;

  [[nodiscard]] const NodeType& node(NodeKind k) const {
    return k == NodeKind::kStandard ? standard : highmem;
  }

  // -- time primitives ------------------------------------------------------

  /// Time for a streaming kernel moving `bytes` with an optional stride
  /// penalty multiplier.
  [[nodiscard]] double mem_time(double bytes, CpuFreq f,
                                double numa_mult = 1.0) const;

  /// Time to retire `flops` of gate arithmetic (scales with frequency).
  [[nodiscard]] double compute_time(double flops, CpuFreq f) const;

  /// NUMA multiplier for a pair-updating kernel on local target `target`
  /// within `local_qubits` local qubits.
  [[nodiscard]] double numa_mult(int target, int local_qubits) const;

  /// Time for one rank to complete a pairwise exchange of `bytes` in
  /// `messages` messages under `policy` on a job of `nodes` nodes.
  [[nodiscard]] double exchange_time(double bytes, int messages,
                                     CommPolicy policy, int nodes) const;

  /// Network congestion factor at `nodes`.
  [[nodiscard]] double congestion(int nodes) const;

  /// Time for a recursive-doubling allreduce of a scalar across `nodes`
  /// ranks: latency-bound, 2 * message latency per tree level (the guard
  /// layer's norm comparison ends in one of these).
  [[nodiscard]] double allreduce_time(int nodes) const;

  // -- power primitives -----------------------------------------------------

  /// Per-node power during a phase.
  enum class Phase { kLocal, kMpi, kIdle, kStall, kIo };
  [[nodiscard]] double node_power(Phase p, CpuFreq f, NodeKind k) const;

  /// System MTBF of an `nodes`-node job (node MTBF / nodes); +inf when the
  /// model is failure-free.
  [[nodiscard]] double system_mtbf_s(int nodes) const;

  /// Switches serving `nodes` nodes (1 per 8 on ARCHER2).
  [[nodiscard]] int switch_count(int nodes) const;

  /// The paper's network-energy estimate: n_s * P_s * dt.
  [[nodiscard]] double switch_energy(int nodes, double runtime_s) const;
};

}  // namespace qsv
