// Host facts recorded with every result. CPU counts come from four sources
// because they have disagreed on this project's hosts: a committed bench
// JSON recorded 1 CPU where `nproc` later said 4.
#include <sched.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "cluster/topology.hpp"
#include "e2e.hpp"
#include "sv/simd/simd.hpp"

namespace qsv::e2e {
namespace {

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// The commit checked out in the working directory, read from .git without
/// running git; "unknown" in a source tree that is not a git checkout.
std::string git_commit() {
  std::string head = first_line(".git/HEAD");
  if (head.rfind("ref: ", 0) == 0) {
    const std::string ref = head.substr(5);
    head = first_line(".git/" + ref);
    std::ifstream packed(".git/packed-refs");
    for (std::string line; head.empty() && std::getline(packed, line);) {
      if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
        head = line.substr(0, 40);
      }
    }
  }
  return head.empty() ? "unknown" : head;
}

/// A /proc/meminfo field in MiB (0 when absent).
double meminfo_mib(const std::string& key) {
  std::ifstream in("/proc/meminfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream fields(line.substr(key.size() + 1));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

}  // namespace

serve::JsonObject host_facts() {
  serve::JsonObject h;
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  // cgroup v2 "quota period", or "max period" when unlimited.
  const std::string cpu_max = first_line("/sys/fs/cgroup/cpu.max");
  double cgroup_cpus = 0;
  {
    std::istringstream fields(cpu_max);
    std::string quota;
    double period = 0;
    if (fields >> quota >> period && quota != "max" && period > 0) {
      cgroup_cpus = std::stod(quota) / period;
    }
  }
  const HostTopology topo = discover_host_topology();

  h["online_cpus"] = static_cast<int>(online);
  h["affinity_cpus"] = affinity;
  h["cgroup_cpu_max"] = cpu_max.empty() ? "unavailable" : cpu_max;
  h["topology_cpus"] = topo.total_cpus;
  h["numa_domains"] = static_cast<int>(topo.domains.size());
  h["topology_source"] = topo.from_sysfs ? "sysfs" : "fallback";

  serve::JsonArray warnings;
  if (affinity != online) {
    warnings.emplace_back("the affinity mask allows " +
                          std::to_string(affinity) + " of " +
                          std::to_string(online) + " online CPUs");
  }
  if (cgroup_cpus > 0 && cgroup_cpus < affinity) {
    warnings.emplace_back("cgroup cpu.max allows " +
                          std::to_string(cgroup_cpus) + " CPUs of the " +
                          std::to_string(affinity) + " in the affinity mask");
  }
  if (topo.total_cpus != online) {
    warnings.emplace_back("the topology reports " +
                          std::to_string(topo.total_cpus) + " CPUs, sysconf " +
                          std::to_string(online));
  }
  h["warnings"] = serve::Json(std::move(warnings));

  h["simd_backend"] = simd::backend_name(simd::active_backend());
  h["simd_origin"] = simd::active_backend_origin();
#ifdef _OPENMP
  h["omp_max_threads"] = omp_get_max_threads();
#else
  h["omp_max_threads"] = 1;
#endif
  h["mem_total_mib"] = meminfo_mib("MemTotal");
  h["mem_available_mib"] = meminfo_mib("MemAvailable");
  h["build_type"] = QSV_E2E_BUILD_TYPE;
  h["compiler"] = __VERSION__;
  h["commit"] = git_commit();
  return h;
}

}  // namespace qsv::e2e
