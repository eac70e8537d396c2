#include "cluster/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace qsv {

std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::istringstream in(text);
  std::string range;
  while (std::getline(in, range, ',')) {
    const auto b = range.find_first_not_of(" \t\n");
    if (b == std::string::npos) {
      continue;
    }
    const auto e = range.find_last_not_of(" \t\n");
    const std::string token = range.substr(b, e - b + 1);
    const auto dash = token.find('-');
    int lo = 0;
    int hi = 0;
    std::istringstream first(token.substr(0, dash));
    first >> lo;
    QSV_REQUIRE(!first.fail(), "cpulist: bad token '" + token + "'");
    if (dash == std::string::npos) {
      hi = lo;
    } else {
      std::istringstream second(token.substr(dash + 1));
      second >> hi;
      QSV_REQUIRE(!second.fail() && hi >= lo,
                  "cpulist: bad range '" + token + "'");
    }
    for (int c = lo; c <= hi; ++c) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

HostTopology discover_host_topology() {
  HostTopology topo;
#if defined(__linux__)
  // Node ids are not guaranteed contiguous; probe with a generous bound.
  for (int node = 0; node < 256; ++node) {
    std::ifstream in("/sys/devices/system/node/node" + std::to_string(node) +
                     "/cpulist");
    if (!in) {
      continue;
    }
    std::string line;
    std::getline(in, line);
    std::vector<int> cpus = parse_cpulist(line);
    if (cpus.empty()) {
      continue;  // memory-only node: no thread can live there
    }
    NumaDomain d;
    d.id = node;
    d.cpus = std::move(cpus);
    topo.domains.push_back(std::move(d));
  }
  topo.from_sysfs = !topo.domains.empty();
#endif
  if (topo.domains.empty()) {
    NumaDomain d;
    d.id = 0;
    const int n = std::max(1u, std::thread::hardware_concurrency());
    for (int c = 0; c < n; ++c) {
      d.cpus.push_back(c);
    }
    topo.domains.push_back(std::move(d));
  }
  for (const NumaDomain& d : topo.domains) {
    topo.total_cpus += static_cast<int>(d.cpus.size());
  }
  return topo;
}

const char* placement_policy_name(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kCompact: return "compact";
    case PlacementPolicy::kScatter: return "scatter";
    case PlacementPolicy::kNone: return "none";
  }
  return "?";
}

std::optional<PlacementPolicy> parse_placement_policy(
    const std::string& text) {
  if (text == "compact") return PlacementPolicy::kCompact;
  if (text == "scatter") return PlacementPolicy::kScatter;
  if (text == "none") return PlacementPolicy::kNone;
  return std::nullopt;
}

PlacementPlan plan_placement(const HostTopology& topo, int num_ranks,
                             PlacementPolicy policy, int cpus_per_rank) {
  QSV_REQUIRE(num_ranks >= 1, "placement needs at least one rank");
  QSV_REQUIRE(cpus_per_rank >= 1, "a rank owns at least one CPU");
  QSV_REQUIRE(!topo.domains.empty(), "placement needs at least one domain");
  const std::int64_t domains = static_cast<std::int64_t>(topo.domains.size());
  std::int64_t host_cpus = 0;
  for (const NumaDomain& d : topo.domains) {
    host_cpus += static_cast<std::int64_t>(d.cpus.size());
  }
  QSV_REQUIRE(host_cpus >= 1, "placement needs at least one CPU");

  PlacementPlan plan;
  plan.policy = policy;
  if (policy == PlacementPolicy::kNone) {
    return plan;
  }

  // The CPU at position p of the policy's CPU order.
  const auto at = [&](std::int64_t p) {
    if (policy == PlacementPolicy::kScatter) {
      // Scatter round-robins across domains; each domain hands out its
      // CPUs in order, wrapping when positions outnumber them
      // (oversubscription still gets a stable assignment).
      const std::vector<int>& cpus =
          topo.domains[static_cast<std::size_t>(p % domains)].cpus;
      return cpus[static_cast<std::size_t>(p / domains) % cpus.size()];
    }
    // Compact exhausts a domain's CPUs before spilling to the next, so
    // co-resident ranks share an LLC and exchange pairs stay local as long
    // as a domain has room; positions beyond the host's CPU count wrap back
    // to domain 0.
    std::size_t di = 0;
    std::int64_t slot = p % host_cpus;
    while (slot >= static_cast<std::int64_t>(topo.domains[di].cpus.size())) {
      slot -= static_cast<std::int64_t>(topo.domains[di].cpus.size());
      ++di;
    }
    return topo.domains[di].cpus[static_cast<std::size_t>(slot)];
  };

  plan.cpus_of_rank.resize(static_cast<std::size_t>(num_ranks));
  // A set never holds more than the host's CPUs, however wide the rank.
  const std::int64_t set_size = std::min<std::int64_t>(cpus_per_rank,
                                                       host_cpus);
  for (int r = 0; r < num_ranks; ++r) {
    std::vector<int>& set = plan.cpus_of_rank[static_cast<std::size_t>(r)];
    for (std::int64_t k = 0; k < set_size; ++k) {
      const int cpu = at(r + k * num_ranks);
      if (std::find(set.begin(), set.end(), cpu) == set.end()) {
        set.push_back(cpu);
      }
    }
  }
  return plan;
}

bool pin_current_thread(const std::vector<int>& cpus) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    if (cpu < 0 || cpu >= CPU_SETSIZE) {
      return false;
    }
    CPU_SET(cpu, &set);
  }
  return !cpus.empty() &&
         pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
#else
  (void)cpus;
  return false;
#endif
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
#endif
  if (cpus.empty()) {
    const int n = std::max(1u, std::thread::hardware_concurrency());
    for (int c = 0; c < n; ++c) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

}  // namespace qsv
