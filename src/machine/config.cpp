#include "machine/config.hpp"

#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace qsv {
namespace {

struct Key {
  std::function<double(const MachineModel&)> get;
  std::function<void(MachineModel&, double)> set;
};

/// The numeric schema. GiB- and GB/s-scaled keys keep config files legible.
const std::map<std::string, Key>& schema() {
  static const std::map<std::string, Key> keys = [] {
    std::map<std::string, Key> k;
    auto add = [&k](const std::string& name, auto member_access,
                    double scale = 1.0) {
      k[name] = Key{
          [member_access, scale](const MachineModel& m) {
            return member_access(const_cast<MachineModel&>(m)) / scale;
          },
          [member_access, scale](MachineModel& m, double v) {
            member_access(m) = v * scale;
          }};
    };
    const double GiB = static_cast<double>(units::GiB);

    // Node classes. Counts and bytes are stored as doubles in the config
    // but rounded on assignment below via dedicated setters.
    k["standard.memory_gib"] = Key{
        [GiB](const MachineModel& m) { return m.standard.memory_bytes / GiB; },
        [GiB](MachineModel& m, double v) {
          m.standard.memory_bytes = static_cast<std::uint64_t>(v * GiB);
        }};
    k["standard.usable_gib"] = Key{
        [GiB](const MachineModel& m) { return m.standard.usable_bytes / GiB; },
        [GiB](MachineModel& m, double v) {
          m.standard.usable_bytes = static_cast<std::uint64_t>(v * GiB);
        }};
    k["standard.available"] = Key{
        [](const MachineModel& m) { return double(m.standard.available); },
        [](MachineModel& m, double v) {
          m.standard.available = static_cast<int>(v);
        }};
    k["standard.cu_rate"] =
        Key{[](const MachineModel& m) { return m.standard.cu_rate; },
            [](MachineModel& m, double v) { m.standard.cu_rate = v; }};
    k["highmem.memory_gib"] = Key{
        [GiB](const MachineModel& m) { return m.highmem.memory_bytes / GiB; },
        [GiB](MachineModel& m, double v) {
          m.highmem.memory_bytes = static_cast<std::uint64_t>(v * GiB);
        }};
    k["highmem.usable_gib"] = Key{
        [GiB](const MachineModel& m) { return m.highmem.usable_bytes / GiB; },
        [GiB](MachineModel& m, double v) {
          m.highmem.usable_bytes = static_cast<std::uint64_t>(v * GiB);
        }};
    k["highmem.available"] = Key{
        [](const MachineModel& m) { return double(m.highmem.available); },
        [](MachineModel& m, double v) {
          m.highmem.available = static_cast<int>(v);
        }};
    k["highmem.extra_static_power_w"] = Key{
        [](const MachineModel& m) { return m.highmem.extra_static_power_w; },
        [](MachineModel& m, double v) {
          m.highmem.extra_static_power_w = v;
        }};

    add("memory.stream_bw_gb_s",
        [](MachineModel& m) -> double& { return m.memory.stream_bw_bytes_per_s; },
        1e9);
    add("memory.bw_scale.low",
        [](MachineModel& m) -> double& { return m.memory.bw_scale.low; });
    add("memory.bw_scale.high",
        [](MachineModel& m) -> double& { return m.memory.bw_scale.high; });
    add("memory.numa_penalty.top",
        [](MachineModel& m) -> double& { return m.memory.numa_penalty[0]; });
    add("memory.numa_penalty.second",
        [](MachineModel& m) -> double& { return m.memory.numa_penalty[1]; });
    add("memory.numa_penalty.third",
        [](MachineModel& m) -> double& { return m.memory.numa_penalty[2]; });

    add("compute.gflops",
        [](MachineModel& m) -> double& { return m.compute.flops_per_s; }, 1e9);

    add("network.bw_blocking_gb_s",
        [](MachineModel& m) -> double& {
          return m.network.bw_blocking_bytes_per_s;
        },
        1e9);
    add("network.bw_nonblocking_gb_s",
        [](MachineModel& m) -> double& {
          return m.network.bw_nonblocking_bytes_per_s;
        },
        1e9);
    add("network.message_latency_us",
        [](MachineModel& m) -> double& { return m.network.message_latency_s; },
        1e-6);
    add("network.congestion_per_doubling",
        [](MachineModel& m) -> double& {
          return m.network.congestion_per_doubling;
        });
    k["network.congestion_base_nodes"] = Key{
        [](const MachineModel& m) {
          return double(m.network.congestion_base_nodes);
        },
        [](MachineModel& m, double v) {
          m.network.congestion_base_nodes = static_cast<int>(v);
        }};

    add("power.local.static_w",
        [](MachineModel& m) -> double& { return m.power.local.static_w; });
    add("power.local.dynamic_w",
        [](MachineModel& m) -> double& { return m.power.local.dynamic_w; });
    add("power.mpi.static_w",
        [](MachineModel& m) -> double& { return m.power.mpi.static_w; });
    add("power.mpi.dynamic_w",
        [](MachineModel& m) -> double& { return m.power.mpi.dynamic_w; });
    add("power.idle.static_w",
        [](MachineModel& m) -> double& { return m.power.idle.static_w; });
    add("power.idle.dynamic_w",
        [](MachineModel& m) -> double& { return m.power.idle.dynamic_w; });
    add("power.stall.static_w",
        [](MachineModel& m) -> double& { return m.power.stall.static_w; });
    add("power.stall.dynamic_w",
        [](MachineModel& m) -> double& { return m.power.stall.dynamic_w; });
    add("power.io.static_w",
        [](MachineModel& m) -> double& { return m.power.io.static_w; });
    add("power.io.dynamic_w",
        [](MachineModel& m) -> double& { return m.power.io.dynamic_w; });
    add("power.dvfs.low",
        [](MachineModel& m) -> double& { return m.power.cpu_dvfs.low; });
    add("power.dvfs.high",
        [](MachineModel& m) -> double& { return m.power.cpu_dvfs.high; });

    add("filesystem.write_bw_gb_s",
        [](MachineModel& m) -> double& {
          return m.filesystem.write_bw_bytes_per_s;
        },
        1e9);
    add("filesystem.read_bw_gb_s",
        [](MachineModel& m) -> double& {
          return m.filesystem.read_bw_bytes_per_s;
        },
        1e9);

    add("reliability.node_mtbf_hours",
        [](MachineModel& m) -> double& { return m.reliability.node_mtbf_s; },
        3600.0);
    add("reliability.requeue_s",
        [](MachineModel& m) -> double& { return m.reliability.requeue_s; });

    k["switches.nodes_per_switch"] = Key{
        [](const MachineModel& m) {
          return double(m.switches.nodes_per_switch);
        },
        [](MachineModel& m, double v) {
          m.switches.nodes_per_switch = static_cast<int>(v);
        }};
    add("switches.power_w",
        [](MachineModel& m) -> double& { return m.switches.power_w; });
    return k;
  }();
  return keys;
}

/// Refuses line `line_no` of a config: the message names the input line,
/// not a source location.
[[noreturn]] void refuse(int line_no, const std::string& what) {
  throw Error("machine config line " + std::to_string(line_no) + ": " + what);
}

}  // namespace

MachineModel apply_machine_config(const MachineModel& base,
                                  const std::string& text) {
  MachineModel m = base;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    std::string line = hash == std::string::npos ? raw : raw.substr(0, hash);
    const auto eq = line.find('=');
    // Skip blank lines.
    if (line.find_first_not_of(" \t") == std::string::npos) {
      continue;
    }
    if (eq == std::string::npos) {
      refuse(line_no, "expected 'key = value'");
    }
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t");
      const auto e = s.find_last_not_of(" \t");
      return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    if (key == "name") {
      m.name = value;
      continue;
    }
    const auto it = schema().find(key);
    if (it == schema().end()) {
      refuse(line_no, "unknown key '" + key + "'");
    }
    std::istringstream vs(value);
    double v = 0;
    vs >> v;
    if (vs.fail()) {
      refuse(line_no, "bad value '" + value + "'");
    }
    it->second.set(m, v);
  }
  return m;
}

MachineModel load_machine_config(const MachineModel& base,
                                 const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw Error("cannot open machine config: " + path);
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return apply_machine_config(base, text);
}

std::string render_machine_config(const MachineModel& m) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "name = " << m.name << "\n";
  for (const auto& [key, access] : schema()) {
    os << key << " = " << access.get(m) << "\n";
  }
  return os.str();
}

}  // namespace qsv
