// The sweep executor must be invisible except for speed: amplitude-for-
// amplitude equivalence with gate-by-gate execution on every backend, and a
// grouping pass that never touches gate order.
#include "sv/sweep.hpp"

#include <gtest/gtest.h>

#include <numbers>

#include "circuit/builders.hpp"
#include "circuit/locality.hpp"
#include "circuit/matrix.hpp"
#include "circuit/sweep_plan.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/trace.hpp"
#include "perf/cost_model.hpp"
#include "machine/archer2.hpp"
#include "sv/statevector.hpp"

namespace qsv {
namespace {

SweepOptions tiny_tiles(int tile_qubits) {
  SweepOptions o;
  o.tile_qubits = tile_qubits;
  return o;
}

SweepOptions disabled() {
  SweepOptions o;
  o.enabled = false;
  return o;
}

/// A circuit that stresses the tile boundary at t: low-qubit pair kernels,
/// diagonal gates whose controls straddle t, fused phases spanning the
/// whole register, a dense two-qubit unitary under t, and local swaps.
Circuit straddling_circuit(int n, Rng& rng) {
  Circuit c(n);
  c.add(make_h(0));
  c.add(make_cx(n - 1, 1));            // high control, low target
  c.add(make_cphase(n - 2, 0, 0.31));  // diagonal, high control
  c.add(make_rz(n - 1, 0.17));         // diagonal, high target
  std::vector<qubit_t> controls;
  std::vector<real_t> angles;
  for (qubit_t q = 1; q < n; ++q) {
    controls.push_back(q);
    angles.push_back(std::numbers::pi_v<real_t> / (1 << (q % 5)));
  }
  c.add(make_fused_phase(0, controls, angles));  // controls straddle any t
  c.add(make_unitary2(0, 2, random_unitary2_params(rng)));
  c.add(make_swap(1, 2));
  c.add(make_ry(2, 1.1));
  c.add(make_x(1));
  c.add(make_s(n - 1));  // diagonal on the top qubit
  return c;
}

template <class S>
void expect_sweep_matches_naive(const Circuit& c, const SweepOptions& sweep) {
  Rng rng(42);
  BasicStateVector<S> naive(c.num_qubits());
  naive.init_random_state(rng);
  BasicStateVector<S> swept(c.num_qubits());
  for (amp_index i = 0; i < naive.num_amps(); ++i) {
    swept.set_amplitude(i, naive.amplitude(i));
  }
  naive.set_sweep_options(disabled());
  swept.set_sweep_options(sweep);

  naive.apply(c);
  swept.apply(c);

  EXPECT_GT(swept.sweep_stats().runs, 0u) << "sweep path was not exercised";
  EXPECT_LT(naive.max_amp_diff(swept), 1e-12);
}

using Layouts = testing::Types<SoaStorage>;

template <class S>
class SweepEquivalence : public testing::Test {};
TYPED_TEST_SUITE(SweepEquivalence, Layouts);

TYPED_TEST(SweepEquivalence, RandomCircuitsAcrossTileSizes) {
  for (int t = 1; t <= 5; ++t) {
    Rng rng(100 + t);
    const Circuit c = build_random(9, 60, rng);
    expect_sweep_matches_naive<TypeParam>(c, tiny_tiles(t));
  }
}

TYPED_TEST(SweepEquivalence, ControlsStraddlingTheTileBoundary) {
  for (int t = 2; t <= 4; ++t) {
    Rng rng(7 + t);
    const Circuit c = straddling_circuit(8, rng);
    expect_sweep_matches_naive<TypeParam>(c, tiny_tiles(t));
  }
}

TYPED_TEST(SweepEquivalence, QftWithFusedPhases) {
  QftOptions q;
  q.fused_phases = true;
  expect_sweep_matches_naive<TypeParam>(build_qft(9, q), tiny_tiles(3));
}

TYPED_TEST(SweepEquivalence, TileCoveringWholeRegister) {
  Rng rng(5);
  const Circuit c = build_random(7, 40, rng);
  // Tile exponent above the register size: clamped, a single tile.
  expect_sweep_matches_naive<TypeParam>(c, tiny_tiles(20));
}

TEST(SweepDistributed, MatchesNaiveAcrossRanksAndPolicies) {
  for (int ranks : {2, 4, 8}) {
    Rng rng(17 + ranks);
    Circuit c = build_random(9, 60, rng);
    c.append(build_qft(9));

    DistOptions naive_opts;
    naive_opts.sweep.enabled = false;
    DistOptions sweep_opts;
    sweep_opts.sweep = tiny_tiles(3);

    DistStateVectorSoa naive(9, ranks, naive_opts);
    DistStateVectorSoa swept(9, ranks, sweep_opts);
    Rng init(99);
    StateVector start(9);
    start.init_random_state(init);
    naive.init_from(start);
    swept.init_from(start);

    naive.apply(c);
    swept.apply(c);

    EXPECT_GT(swept.sweep_stats().runs, 0u);
    EXPECT_EQ(naive.sweep_stats().runs, 0u);
    EXPECT_LT(naive.gather().max_amp_diff(swept.gather()), 1e-12);
  }
}

TEST(SweepDistributed, RunsBrokenByDistributedGates) {
  // 8 low gates, a distributed H, 8 more low gates: two sweep runs with the
  // exchange between them, never one run spanning it.
  const int n = 8;
  const int ranks = 4;  // L = 6
  Circuit c(n);
  for (int i = 0; i < 8; ++i) {
    c.add(make_h(i % 3));
  }
  c.add(make_h(n - 1));  // distributed at L = 6
  for (int i = 0; i < 8; ++i) {
    c.add(make_ry(i % 3, 0.2 * i));
  }

  DistOptions opts;
  opts.sweep = tiny_tiles(3);
  DistStateVectorSoa d(n, ranks, opts);
  RecordingListener rec;
  d.set_listener(&rec);
  d.apply(c);

  EXPECT_EQ(d.sweep_stats().runs, 2u);
  EXPECT_EQ(d.sweep_stats().swept_gates, 16u);
  EXPECT_EQ(d.sweep_stats().passes_saved, 14u);

  // Event order: sweep announcement, 8 local gates, the exchange, then the
  // second announcement and its 8 local gates.
  ASSERT_EQ(rec.events().size(), 17u + 2u);
  EXPECT_EQ(rec.events()[0].kind, ExecEvent::Kind::kSweep);
  EXPECT_EQ(rec.events()[0].sweep_gates, 8);
  EXPECT_EQ(rec.events()[9].kind, ExecEvent::Kind::kExchange);
  EXPECT_EQ(rec.events()[10].kind, ExecEvent::Kind::kSweep);
  EXPECT_EQ(rec.events()[10].sweep_gates, 8);
}

TEST(SweepPlan, CoversTheStreamInOrderWithoutReordering) {
  Rng rng(3);
  const Circuit c = build_random(8, 120, rng);
  for (int t = 1; t <= 6; ++t) {
    const auto runs = plan_sweep_runs(c.gates(), 8, tiny_tiles(t));
    std::size_t next = 0;
    for (const GateRun& run : runs) {
      // Contiguous, in-order cover: the planner cannot reorder gates (and
      // therefore cannot swap non-commuting neighbours) by construction.
      EXPECT_EQ(run.first, next);
      EXPECT_GT(run.count, 0u);
      if (run.sweep) {
        EXPECT_GE(run.count, 2u);
        for (std::size_t i = 0; i < run.count; ++i) {
          EXPECT_TRUE(is_sweepable(c.gate(run.first + i), t));
        }
      }
      next = run.first + run.count;
    }
    EXPECT_EQ(next, c.size());
  }
}

TEST(SweepPlan, NonCommutingNeighboursStayAdjacent) {
  // H(0) and T(0) do not commute; the plan must keep the H-T-H order inside
  // one run rather than hoisting the diagonal T out.
  Circuit c(4);
  c.add(make_h(0));
  c.add(make_t_gate(0));
  c.add(make_h(0));
  const auto runs = plan_sweep_runs(c.gates(), 4, tiny_tiles(2));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].sweep);
  EXPECT_EQ(runs[0].count, 3u);
  expect_sweep_matches_naive<SoaStorage>(c, tiny_tiles(2));
}

TEST(SweepPlan, ShortRunsExecuteGateByGate) {
  Circuit c(8);
  c.add(make_h(0));  // sweepable, but alone before the run breaker
  c.add(make_h(7));  // local to the register, yet above t = 3: breaks runs
  c.add(make_h(1));  // sweepable, alone again
  const auto runs = plan_sweep_runs(c.gates(), 8, tiny_tiles(3));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].sweep);
  EXPECT_EQ(runs[0].count, 3u);
}

TEST(SweepPlan, DisabledMeansOneNaiveRun) {
  Rng rng(9);
  const Circuit c = build_random(6, 30, rng);
  const auto runs = plan_sweep_runs(c.gates(), 6, disabled());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].sweep);
  EXPECT_EQ(runs[0].count, c.size());
}

TEST(SweepPlan, MinRunRespected) {
  // One sweepable gate short of kMinSweepRun runs gate by gate; one more
  // gate makes the stretch a tiled run.
  Circuit c(8);
  for (std::size_t i = 0; i + 1 < kMinSweepRun; ++i) {
    c.add(make_h(static_cast<qubit_t>(i % 2)));
  }
  const auto runs = plan_sweep_runs(c.gates(), 8, tiny_tiles(3));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].sweep);
  c.add(make_h(1));
  const auto runs2 = plan_sweep_runs(c.gates(), 8, tiny_tiles(3));
  ASSERT_EQ(runs2.size(), 1u);
  EXPECT_TRUE(runs2[0].sweep);
}

TEST(SweepCost, ChargesAreIdenticalWithAndWithoutSweeping) {
  // The cost model must price a swept run exactly like gate-by-gate
  // execution: the kSweep event is informational only.
  const MachineModel m = archer2();
  JobConfig job;
  job.num_qubits = 30;
  job.nodes = 4;

  Circuit c = build_qft(30);

  DistOptions on;
  DistOptions off;
  off.sweep.enabled = false;

  TraceSim sim_on(30, 4, on);
  TraceSim sim_off(30, 4, off);
  CostModel cost_on(m, job);
  CostModel cost_off(m, job);
  sim_on.set_listener(&cost_on);
  sim_off.set_listener(&cost_off);
  sim_on.apply(c);
  sim_off.apply(c);

  const RunReport r_on = cost_on.report();
  const RunReport r_off = cost_off.report();
  EXPECT_EQ(r_on.gates, r_off.gates);
  EXPECT_DOUBLE_EQ(r_on.runtime_s, r_off.runtime_s);
  EXPECT_DOUBLE_EQ(r_on.node_energy_j, r_off.node_energy_j);
  EXPECT_DOUBLE_EQ(r_on.total_energy_j(), r_off.total_energy_j());
  EXPECT_GT(r_on.sweep_runs, 0u);
  EXPECT_GT(r_on.sweep_passes_saved, 0u);
  EXPECT_EQ(r_off.sweep_runs, 0u);
}

}  // namespace
}  // namespace qsv
