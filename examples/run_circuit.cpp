// Load a circuit from a text file, run it functionally on a virtual
// cluster through run_circuit, report its digest and observables, and price
// it on the ARCHER2 model.
//
//   $ ./run_circuit circuits/bell.qc
//   $ ./run_circuit my_circuit.qc 8        # 8 virtual ranks
//
// The circuit format is documented in src/circuit/serialize.hpp; see
// examples/circuits/ for samples.
#include <cstdlib>
#include <iostream>

#include "circuit/serialize.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/observables.hpp"
#include "harness/experiments.hpp"
#include "machine/archer2.hpp"
#include "machine/slurm.hpp"
#include "perf/runner.hpp"

int main(int argc, char** argv) {
  using namespace qsv;
  if (argc < 2) {
    std::cerr << "usage: run_circuit <circuit-file> [ranks]\n";
    return 1;
  }
  int ranks = argc > 2 ? std::atoi(argv[2]) : 4;

  Circuit c = [&] {
    try {
      return load_circuit(argv[1]);
    } catch (const Error& e) {
      std::cerr << e.what() << "\n";
      std::exit(1);
    }
  }();
  std::cout << "Loaded '" << (c.name().empty() ? argv[1] : c.name())
            << "': " << c.num_qubits() << " qubits, " << c.size()
            << " gates\n";

  if (c.num_qubits() > 22) {
    std::cerr << "register too large to run functionally here (max 22)\n";
    return 1;
  }

  // Each rank must hold at least two amplitudes (QuEST's rule): clamp the
  // rank count for tiny registers.
  const int max_ranks = 1 << (c.num_qubits() - 1);
  if (ranks > max_ranks) {
    std::cout << "(clamping ranks " << ranks << " -> " << max_ranks
              << " for a " << c.num_qubits() << "-qubit register)\n";
    ranks = max_ranks;
  }

  // The driver `qsv run` uses: the same digest it prints as `state crc32:`.
  DistStateVector<SoaStorage> sv(c.num_qubits(), ranks);
  const RunOutcome out = run_circuit(sv, c);
  std::cout << "state digest: " << out.digest << "\n";

  std::cout << "\nPer-qubit <Z>:\n";
  for (qubit_t q = 0; q < c.num_qubits(); ++q) {
    PauliTerm z;
    z.factors = {{q, Pauli::kZ}};
    std::cout << "  qubit " << q << ": " << fmt::fixed(expectation(sv, z), 4)
              << "\n";
  }
  std::cout << "traffic: " << sv.comm_stats().messages << " messages, "
            << fmt::bytes(sv.comm_stats().bytes) << "\n";

  // Price the same circuit on ARCHER2 at the smallest fitting job.
  const MachineModel m = archer2();
  if (c.num_qubits() >= 33) {
    return 0;  // (unreachable here, kept for clarity)
  }
  std::cout << "\nIf this register were scaled to 38 qubits it would need "
            << min_nodes(m, 38, NodeKind::kStandard)
            << " standard nodes; submit with:\n\n";
  JobConfig job = make_min_job(m, 38, NodeKind::kStandard);
  slurm::SbatchOptions sopts;
  sopts.job_name = c.name().empty() ? "qsv-run" : c.name();
  std::cout << slurm::render_sbatch_script(job, sopts,
                                           std::string("./run_circuit ") +
                                               argv[1]);
  return 0;
}
