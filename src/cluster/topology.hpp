// Host topology discovery and rank placement for the threaded cluster.
//
// The paper's machine has two NUMA domains per ARCHER2 node; "Low-Level and
// NUMA-Aware Optimization for High-Performance Quantum Simulation"
// (PAPERS.md) shows that where a rank's slice lives relative to the thread
// that sweeps it is worth large factors on exactly this workload. When ranks
// become OS threads (cluster/rank_team.hpp) the placement question becomes
// real for us too: this header discovers the host's NUMA domains from
// sysfs (with a portable single-domain fallback), maps ranks to CPUs under
// a placement policy and pins threads. A pinned rank allocates its slice on
// its own thread, so first touch puts the pages in its domain. What that
// saves is measured on the host; the cost model prices the paper's machine
// and never reads this host's topology.
#pragma once

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

/// The concrete rank -> CPU assignment for one run.
struct PlacementPlan {
  PlacementPolicy policy = PlacementPolicy::kNone;
  /// The CPUs each rank's thread is pinned to (empty for kNone). A rank's
  /// slice is first-touched in the domain of its first CPU.
  std::vector<std::vector<int>> cpus_of_rank;
};

/// Maps `num_ranks` rank threads onto the host under `policy`, each owning
/// `cpus_per_rank` CPUs. The policy orders the host's CPUs (compact: domain
/// by domain; scatter: round-robin across domains), and rank r takes the
/// positions r, r + num_ranks, r + 2 * num_ranks, ... of that order, so the
/// sets are disjoint while num_ranks * cpus_per_rank fits the host, every
/// rank's first CPU (and so its domain) does not depend on
/// `cpus_per_rank`, and more ranks than CPUs wrap onto shared CPUs.
[[nodiscard]] PlacementPlan plan_placement(const HostTopology& topo,
                                           int num_ranks,
                                           PlacementPolicy policy,
                                           int cpus_per_rank);

/// Pins the calling thread to the CPUs in `cpus`. Returns false where
/// unsupported (or when the kernel refuses, e.g. no CPU of the set is in
/// the allowed mask) — callers record the outcome instead of failing the
/// run.
bool pin_current_thread(const std::vector<int>& cpus);

/// The CPUs the calling thread may run on: its affinity mask, or
/// 0 .. hardware_concurrency - 1 where the mask cannot be read.
[[nodiscard]] std::vector<int> allowed_cpus();

}  // namespace qsv
