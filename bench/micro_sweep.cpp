// Host-machine micro-benchmark for the cache-tiled sweep executor:
// gate-by-gate execution streams the whole statevector through the cache
// hierarchy once per gate, the sweep executor walks it once per *run* and
// replays every gate on an L2-resident tile. Workloads are runs of low-qubit
// gates (the case the executor targets).
//
// A second section times the sweep under every compiled SIMD kernel backend
// (sv/simd/): the `<workload>_soa_<backend>_vs_scalar` JSON keys are the
// vector-over-scalar speedups the kernel layer is accepted on. The keys keep
// the `soa` layout tag so they compare with BENCH_micro_sweep.json, which
// also holds the rows of the removed interleaved layout.
//
// Usage: micro_sweep [--qubits N] [--reps R] [--tile T] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "circuit/sweep_plan.hpp"
#include "cluster/topology.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "dist/dist_statevector.hpp"
#include "sv/simd/simd.hpp"
#include "sv/statevector.hpp"

namespace qsv {
namespace {

// A run of dense 1-qubit gates cycling over the lowest `width` qubits: the
// shape produced by transpiled circuits' local layers.
Circuit random_1q_run(int n, int width, int gates) {
  Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    const auto q = static_cast<qubit_t>(i % width);
    switch (i % 4) {
      case 0: c.add(make_h(q)); break;
      case 1: c.add(make_ry(q, 0.3 + 0.1 * i)); break;
      case 2: c.add(make_rz(q, 0.2 * (i + 1))); break;
      default: c.add(make_x(q)); break;
    }
  }
  return c;
}

// A run of exclusively dense 2x2 gates (no diagonals): the pure
// apply_matrix1 workload the vector backends target.
Circuit dense_1q_run(int n, int width, int gates) {
  Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    const auto q = static_cast<qubit_t>(i % width);
    switch (i % 4) {
      case 0: c.add(make_h(q)); break;
      case 1: c.add(make_ry(q, 0.3 + 0.1 * i)); break;
      case 2: c.add(make_rx(q, 0.2 * (i + 1))); break;
      default: c.add(make_x(q)); break;
    }
  }
  return c;
}

// A run of diagonal 1-qubit gates (phase-type kernels): these are memory-
// bound even on hosts where the dense 2x2 kernel is compute-bound, so they
// isolate the cache-locality win of the sweep.
Circuit diagonal_1q_run(int n, int width, int gates) {
  Circuit c(n);
  for (int i = 0; i < gates; ++i) {
    const auto q = static_cast<qubit_t>(i % width);
    switch (i % 4) {
      case 0: c.add(make_rz(q, 0.4 + 0.1 * i)); break;
      case 1: c.add(make_s(q)); break;
      case 2: c.add(make_t_gate(q)); break;
      default: c.add(make_phase(q, 0.15 * (i + 1))); break;
    }
  }
  return c;
}

// The local layer of a QFT restricted to the lowest `width` qubits of a
// large register: Hadamards plus the controlled-phase ladder.
Circuit qft_low_layer(int n, int width) {
  Circuit c(n);
  for (qubit_t t = 0; t < width; ++t) {
    c.add(make_h(t));
    for (qubit_t ctl = t + 1; ctl < width; ++ctl) {
      c.add(make_cphase(ctl, t,
                        std::numbers::pi / (1 << (ctl - t))));
    }
  }
  return c;
}

int g_tile_qubits = kDefaultSweepTileQubits;

double best_apply_seconds(int n, const Circuit& c, bool sweep, int reps) {
  StateVector sv(n);
  SweepOptions o;
  o.enabled = sweep;
  o.tile_qubits = g_tile_qubits;
  sv.set_sweep_options(o);
  sv.apply(c);  // warm-up: faults in the storage and primes caches
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    sv.apply(c);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct Workload {
  std::string name;
  Circuit circuit;
};

int run(int argc, char** argv) {
  int qubits = 25;  // 512 MiB: the naive path cannot sit in LLC
  int reps = 3;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--qubits") {
      qubits = std::atoi(argv[i + 1]);
    } else if (a == "--reps") {
      reps = std::atoi(argv[i + 1]);
    } else if (a == "--tile") {
      g_tile_qubits = std::atoi(argv[i + 1]);
    }
  }

  bench::print_header("sweep executor micro-benchmark (host machine)");
  std::cout << "qubits: " << qubits << ", tile: 2^" << g_tile_qubits
            << " amplitudes, reps: " << reps << " (best-of)\n\n";

  bench::JsonReport json = bench::JsonReport::from_args(argc, argv);
  const Workload workloads[] = {
      {"run16_1q", random_1q_run(qubits, 8, 16)},
      {"run16_dense", dense_1q_run(qubits, 8, 16)},
      {"run16_diag", diagonal_1q_run(qubits, 8, 16)},
      {"qft_low8", qft_low_layer(qubits, 8)},
  };

  Table table("gate-by-gate vs cache-tiled sweep");
  table.header({"workload", "gates", "naive", "sweep", "speedup"});
  for (const Workload& w : workloads) {
    const double naive = best_apply_seconds(qubits, w.circuit, false, reps);
    const double sweep = best_apply_seconds(qubits, w.circuit, true, reps);
    const double speedup = naive / sweep;
    table.row({w.name, std::to_string(w.circuit.size()), fmt::seconds(naive),
               fmt::seconds(sweep), fmt::fixed(speedup, 2) + "x"});
    json.add(w.name + "_soa_naive", naive, "s");
    json.add(w.name + "_soa_sweep", sweep, "s");
    json.add(w.name + "_soa_speedup", speedup, "x");
  }
  table.print(std::cout);

  bench::print_note(
      "speedup comes from cache locality alone: the sweep makes one pass "
      "over the statevector per run while gate-by-gate makes one per gate. "
      "It grows with run length and shrinks once the register fits in LLC.");

  // Per-backend section: the sweep path timed under each compiled SIMD
  // kernel backend, pinned via the dispatch override. All backends are
  // bit-identical (tests/test_simd.cpp); this measures what that identity
  // costs or buys per ISA.
  std::vector<simd::Backend> backends;
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<simd::Backend>(i);
    if (simd::backend_supported(b)) {
      backends.push_back(b);
    }
  }
  const simd::Backend prev = simd::active_backend();
  Table bt("sweep by SIMD kernel backend");
  bt.header({"workload", "backend", "sweep", "vs scalar"});
  for (const Workload& w : workloads) {
    double scalar_s = 0;
    for (const simd::Backend b : backends) {
      simd::set_active_backend(b);
      const double t = best_apply_seconds(qubits, w.circuit, true, reps);
      if (b == simd::Backend::kScalar) {
        scalar_s = t;
      }
      const double vs = scalar_s > 0 ? scalar_s / t : 1.0;
      const std::string key = w.name + "_soa_" + simd::backend_name(b);
      bt.row({w.name, simd::backend_name(b), fmt::seconds(t),
              fmt::fixed(vs, 2) + "x"});
      json.add(key, t, "s");
      if (b != simd::Backend::kScalar) {
        json.add(key + "_vs_scalar", vs, "x");
      }
    }
  }
  simd::set_active_backend(prev);
  bt.print(std::cout);

  // Ranks-as-threads section: the same sweep workload through the
  // distributed engine, serial vs one-thread-per-rank. The speedup is
  // bounded by the host's CPU count (recorded in the JSON so the numbers
  // are interpretable on any machine).
  {
    const HostTopology topo = discover_host_topology();
    const int ranks = 4;
    const int dq = std::min(qubits, 22);  // keep both engines in budget
    auto time_dist = [&](bool threaded) {
      DistOptions o;
      o.sweep.tile_qubits = g_tile_qubits;
      if (threaded) {
        o.threading.threads = ranks;
        o.threading.placement = PlacementPolicy::kCompact;
      }
      DistStateVectorSoa sv(dq, ranks, o);
      const Circuit& c = workloads[0].circuit;
      Circuit shrunk(dq);
      for (const Gate& g : c.gates()) {
        shrunk.add(g);
      }
      sv.apply(shrunk);  // warm-up
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        sv.apply(shrunk);
        const auto t1 = std::chrono::steady_clock::now();
        best =
            std::min(best, std::chrono::duration<double>(t1 - t0).count());
      }
      return best;
    };
    const double serial_s = time_dist(false);
    const double threads_s = time_dist(true);
    Table tt("distributed sweep: serial vs ranks-as-threads (" +
             std::to_string(ranks) + " ranks, " + std::to_string(dq) +
             " qubits)");
    tt.header({"engine", "sweep", "speedup"});
    tt.row({"serial", fmt::seconds(serial_s), "1.00x"});
    tt.row({"threaded", fmt::seconds(threads_s),
            fmt::fixed(serial_s / threads_s, 2) + "x"});
    tt.print(std::cout);
    json.add("dist4_serial", serial_s, "s");
    json.add("dist4_threads", threads_s, "s");
    json.add("dist4_thread_speedup", serial_s / threads_s, "x");
    json.add("host_cpus", topo.total_cpus, "cpus");
    json.add("host_numa_domains", static_cast<double>(topo.domains.size()),
             "domains");
  }

  json.write("micro_sweep");
  return 0;
}

}  // namespace
}  // namespace qsv

int main(int argc, char** argv) { return qsv::run(argc, argv); }
