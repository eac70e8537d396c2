// Host topology discovery and rank placement for the threaded cluster.
//
// The paper's machine has two NUMA domains per ARCHER2 node; "Low-Level and
// NUMA-Aware Optimization for High-Performance Quantum Simulation"
// (PAPERS.md) shows that where a rank's slice lives relative to the thread
// that sweeps it is worth large factors on exactly this workload. When ranks
// become OS threads (cluster/rank_team.hpp) the placement question becomes
// real for us too: this header discovers the host's NUMA domains from
// sysfs (with a portable single-domain fallback), maps ranks to CPUs under
// a placement policy, pins threads, and measures the local-vs-remote
// bandwidth ratio the cost model folds into exchange pricing.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace qsv {

/// One NUMA domain: its sysfs node id and the CPUs it owns.
struct NumaDomain {
  int id = 0;
  std::vector<int> cpus;
};

/// The host as the placement layer sees it.
struct HostTopology {
  std::vector<NumaDomain> domains;
  /// Total CPUs across all domains.
  int total_cpus = 0;
  /// True when the layout came from /sys/devices/system/node; false for the
  /// portable fallback (one domain holding hardware_concurrency CPUs).
  bool from_sysfs = false;
};

/// Reads /sys/devices/system/node/node*/cpulist. On hosts without the sysfs
/// tree (or outside Linux) falls back to a single domain of
/// std::thread::hardware_concurrency() CPUs numbered 0..n-1.
[[nodiscard]] HostTopology discover_host_topology();

/// Parses a kernel cpulist string ("0-3,8,10-11") into CPU ids.
[[nodiscard]] std::vector<int> parse_cpulist(const std::string& text);

/// How rank threads are laid onto the host's domains.
enum class PlacementPolicy {
  kCompact,  // fill one domain before spilling to the next (shared LLC)
  kScatter,  // round-robin across domains (maximum aggregate bandwidth)
  kNone,     // no pinning: the OS scheduler decides
};

[[nodiscard]] const char* placement_policy_name(PlacementPolicy p);

/// Parses "compact" | "scatter" | "none" (the --placement values);
/// nullopt for anything else.
[[nodiscard]] std::optional<PlacementPolicy> parse_placement_policy(
    const std::string& text);

/// The concrete rank -> CPU/domain assignment for one run.
struct PlacementPlan {
  PlacementPolicy policy = PlacementPolicy::kNone;
  /// CPU each rank's thread is pinned to (empty for kNone).
  std::vector<int> cpu_of_rank;
  /// NUMA domain each rank's slice should be first-touched in. Filled for
  /// every policy (kNone uses the compact mapping so cross-domain exchange
  /// pricing stays defined even without pinning).
  std::vector<int> domain_of_rank;
};

/// Maps `num_ranks` rank threads onto the host under `policy`.
[[nodiscard]] PlacementPlan plan_placement(const HostTopology& topo,
                                           int num_ranks,
                                           PlacementPolicy policy);

/// Pins the calling thread to `cpu`. Returns false where unsupported (or
/// when the kernel refuses, e.g. the CPU is outside the allowed mask) —
/// callers record the outcome instead of failing the run.
bool pin_current_thread(int cpu);

/// Measures the local-vs-remote memory bandwidth ratio between the first
/// two domains with a small strided-copy probe (buffer of `probe_bytes`).
/// Returns 1.0 on single-domain hosts or when pinning is unavailable; the
/// result is always >= 1.0. This is the factor the cost model applies to
/// cross-domain exchange traffic.
[[nodiscard]] double measure_numa_bandwidth_ratio(
    const HostTopology& topo, std::size_t probe_bytes = 8u << 20);

}  // namespace qsv
