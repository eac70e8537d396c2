#include "cluster/topology.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
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

  // Position p of the policy's CPU order, as {domain index, CPU}.
  const auto at = [&](std::int64_t p) -> std::pair<int, int> {
    if (policy == PlacementPolicy::kScatter) {
      // Scatter round-robins across domains; each domain hands out its
      // CPUs in order, wrapping when positions outnumber them
      // (oversubscription still gets a stable assignment).
      const std::int64_t di = p % domains;
      const std::vector<int>& cpus =
          topo.domains[static_cast<std::size_t>(di)].cpus;
      return {static_cast<int>(di),
              cpus[static_cast<std::size_t>(p / domains) % cpus.size()]};
    }
    // Compact exhausts a domain's CPUs before spilling to the next, so
    // co-resident ranks share an LLC and exchange pairs stay local as long
    // as a domain has room; positions beyond the host's CPU count wrap back
    // to domain 0. kNone uses the same domain map so cross-domain pricing
    // has a defined answer.
    std::size_t di = 0;
    std::int64_t slot = p % host_cpus;
    while (slot >= static_cast<std::int64_t>(topo.domains[di].cpus.size())) {
      slot -= static_cast<std::int64_t>(topo.domains[di].cpus.size());
      ++di;
    }
    return {static_cast<int>(di),
            topo.domains[di].cpus[static_cast<std::size_t>(slot)]};
  };

  PlacementPlan plan;
  plan.policy = policy;
  plan.domain_of_rank.resize(static_cast<std::size_t>(num_ranks));
  if (policy != PlacementPolicy::kNone) {
    plan.cpus_of_rank.resize(static_cast<std::size_t>(num_ranks));
  }
  // A set never holds more than the host's CPUs, however wide the rank.
  const std::int64_t set_size = std::min<std::int64_t>(cpus_per_rank,
                                                       host_cpus);
  for (int r = 0; r < num_ranks; ++r) {
    plan.domain_of_rank[static_cast<std::size_t>(r)] = at(r).first;
    if (policy == PlacementPolicy::kNone) {
      continue;
    }
    std::vector<int>& set = plan.cpus_of_rank[static_cast<std::size_t>(r)];
    for (std::int64_t k = 0; k < set_size; ++k) {
      const int cpu = at(r + k * num_ranks).second;
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

namespace {

#if defined(__linux__)
/// Streams `buf` once and returns the elapsed seconds. Each 64-byte line
/// read is folded into a volatile sink, so the reads cannot be optimised
/// away (a result nothing uses lets the compiler delete the whole loop).
double time_stream(const std::vector<char>& buf) {
  volatile std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i + 64 <= buf.size(); i += 4096) {
    std::uint64_t line[8];
    std::memcpy(line, buf.data() + i, sizeof line);
    std::uint64_t folded = 0;
    for (const std::uint64_t word : line) {
      folded ^= word;
    }
    sink = sink ^ folded;
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Saves/restores the caller's affinity around a pinned probe.
struct AffinityGuard {
  cpu_set_t saved;
  bool valid;
  AffinityGuard() {
    valid =
        pthread_getaffinity_np(pthread_self(), sizeof saved, &saved) == 0;
  }
  ~AffinityGuard() {
    if (valid) {
      pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
    }
  }
};
#endif

}  // namespace

double measure_numa_bandwidth_ratio(const HostTopology& topo,
                                    std::size_t probe_bytes) {
  if (topo.domains.size() < 2 || topo.domains[0].cpus.empty() ||
      topo.domains[1].cpus.empty()) {
    return 1.0;
  }
#if defined(__linux__)
  AffinityGuard guard;
  // First-touch the buffer from domain 0, then stream it from a domain-0
  // CPU (local) and a domain-1 CPU (remote). The ratio of the two times is
  // the penalty factor for cross-domain exchange traffic.
  if (!pin_current_thread({topo.domains[0].cpus.front()})) {
    return 1.0;
  }
  std::vector<char> buf(probe_bytes, 1);
  // Warm + local pass.
  time_stream(buf);
  const double local_s = time_stream(buf);
  if (!pin_current_thread({topo.domains[1].cpus.front()})) {
    return 1.0;
  }
  const double remote_s = time_stream(buf);
  if (local_s <= 0 || remote_s <= 0) {
    return 1.0;
  }
  return std::max(1.0, remote_s / local_s);
#else
  (void)probe_bytes;
  return 1.0;
#endif
}

}  // namespace qsv
