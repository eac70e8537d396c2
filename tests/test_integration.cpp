// End-to-end pipelines across module boundaries: serialization ->
// transpilation -> distributed execution -> snapshots -> observables ->
// cost model, exactly as a downstream user would chain them.
#include <gtest/gtest.h>

#include <sstream>

#include "circuit/builders.hpp"
#include "circuit/locality.hpp"
#include "circuit/serialize.hpp"
#include "circuit/transpile/cache_blocking.hpp"
#include "circuit/transpile/cleanup.hpp"
#include "circuit/transpile/fusion.hpp"
#include "circuit/transpile/greedy_cache_blocking.hpp"
#include "circuit/transpile/pass.hpp"
#include "common/bits.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/observables.hpp"
#include "dist/snapshot.hpp"
#include "harness/experiments.hpp"
#include "machine/archer2.hpp"
#include "machine/slurm.hpp"
#include "perf/runner.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

TEST(Integration, SerializeTranspileRunSnapshotObserve) {
  const test::ScratchDir scratch("integration");
  const std::string circ_path = scratch.file("pipeline.qc");
  const std::string snap_path = scratch.file("pipeline.qsv");

  // 1. Author a circuit and write it to disk.
  QftOptions qopts;
  qopts.ascending = true;
  qopts.fused_phases = true;
  save_circuit(circ_path, build_qft(10, qopts));

  // 2. Load it back and cache-block for an 8-rank decomposition.
  const Circuit loaded = load_circuit(circ_path);
  CacheBlockingOptions copts;
  copts.local_qubits = 7;
  const Circuit blocked = CacheBlockingPass(copts).run(loaded);

  // 3. Run both variants distributed; equal states, less traffic.
  DistStateVector<SoaStorage> a(10, 8);
  DistStateVector<SoaStorage> b(10, 8);
  a.apply(loaded);
  b.apply(blocked);
  EXPECT_LT(a.gather().max_amp_diff(b.gather()), 1e-10);
  EXPECT_LT(b.comm_stats().bytes, a.comm_stats().bytes);

  // 4. Snapshot the blocked run and restore into a fresh engine.
  save_state(snap_path, b);
  DistStateVector<SoaStorage> c(10, 4);
  load_state(snap_path, c);

  // 5. Observables agree across all three engines.
  for (const char* term : {"Z0", "X4 X5", "0.5 * Z2 Z9"}) {
    const PauliTerm t = PauliTerm::parse(term);
    const real_t want = expectation(a, t);
    EXPECT_NEAR(expectation(b, t), want, 1e-10) << term;
    EXPECT_NEAR(expectation(c, t), want, 1e-10) << term;
  }
}

TEST(Integration, FullPassPipelinePreservesSemanticsAndHelps) {
  // cleanup -> fusion -> greedy(lookahead), run in turn on a workload with
  // redundancy, runs and hot distributed qubits.
  Circuit c(9, "messy");
  Rng rng(5);
  // Redundant pair, a hot distributed qubit, and random filler.
  c.add(make_x(2)).add(make_x(2));
  for (int i = 0; i < 20; ++i) {
    c.add(make_ry(8, rng.uniform(-1, 1)));
  }
  c.append(build_random(9, 60, rng));

  GreedyCacheBlockingOptions gopts;
  gopts.local_qubits = 6;
  gopts.min_reuse = 2;
  const Circuit out = GreedyCacheBlockingPass(gopts).run(
      FusionPass().run(CleanupPass().run(c)));

  // Semantics preserved.
  StateVector sa(9);
  StateVector sb(9);
  Rng init(7);
  sa.init_random_state(init);
  for (amp_index i = 0; i < sa.num_amps(); ++i) {
    sb.set_amplitude(i, sa.amplitude(i));
  }
  sa.apply(c);
  sb.apply(out);
  EXPECT_LT(sa.max_amp_diff(sb), 1e-9);

  // And the pipeline paid off on both axes.
  EXPECT_LT(out.size(), c.size());
  EXPECT_LT(analyze_locality(out, 6).distributed,
            analyze_locality(c, 6).distributed);
}

TEST(Integration, TranspiledCircuitIsCheaperOnTheMachineModel) {
  // The cost model must agree with the locality analysis: the blocked QFT
  // is cheaper in modelled runtime AND energy at every decomposition.
  const MachineModel m = archer2();
  for (int qubits : {36, 40}) {
    const JobConfig job = make_min_job(m, qubits, NodeKind::kStandard);
    const int local =
        qubits - bits::log2_exact(static_cast<std::uint64_t>(job.nodes));
    DistOptions nb;
    nb.policy = CommPolicy::kNonBlocking;
    const RunReport before = run_model(builtin_qft(qubits), m, job, nb);
    const RunReport after = run_model(fast_qft(qubits, local), m, job, nb);
    EXPECT_LT(after.runtime_s, before.runtime_s) << qubits;
    EXPECT_LT(after.total_energy_j(), before.total_energy_j()) << qubits;
    EXPECT_LT(after.traffic.bytes, before.traffic.bytes) << qubits;
  }
}

TEST(Integration, SampleCountsMatchProbabilities) {
  StateVector sv(3);
  sv.apply(build_ghz(3));
  Rng rng(11);
  const auto counts = sv.sample_counts(2000, rng);
  // GHZ: only |000> and |111>, each ~50%.
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(counts.at(0), 1000, 120);
  EXPECT_NEAR(counts.at(7), 1000, 120);
}

TEST(Integration, SampleCountsEdgeCases) {
  StateVector sv(2);
  Rng rng(1);
  EXPECT_TRUE(sv.sample_counts(0, rng).empty());
  const auto counts = sv.sample_counts(10, rng);
  ASSERT_EQ(counts.size(), 1u);  // |00> only
  EXPECT_EQ(counts.at(0), 10);
}

TEST(Integration, ModelledRunMatchesPaperPipelineEndToEnd) {
  // The whole measurement chain of §2.4 in one flow: trace-run the Fast
  // 44-qubit QFT, print through the sacct emulation, parse back, add the
  // switch term, land inside the paper's Table 2 band.
  const MachineModel m = archer2();
  JobConfig job;
  job.num_qubits = 44;
  job.node_kind = NodeKind::kStandard;
  job.freq = CpuFreq::kMedium2000;
  job.nodes = 4096;
  DistOptions nb;
  nb.policy = CommPolicy::kNonBlocking;
  const RunReport r = run_model(fast_qft(44, 32), m, job, nb);

  const std::string row = slurm::render_sacct_row("1", "qft44", job, r);
  std::istringstream is(row);
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(is, field, '|')) {
    fields.push_back(field);
  }
  const double total = slurm::parse_consumed_energy(fields[5]) +
                       m.switch_energy(job.nodes, r.runtime_s);
  EXPECT_NEAR(total, 431e6, 431e6 * 0.10);  // paper: 431 MJ
}

}  // namespace
}  // namespace qsv
