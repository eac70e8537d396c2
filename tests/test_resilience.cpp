#include "dist/resilience.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/builders.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/recovery_policy.hpp"
#include "harness/experiments.hpp"
#include "harness/resilience.hpp"
#include "machine/archer2.hpp"
#include "machine/job.hpp"
#include "perf/resilience_model.hpp"
#include "perf/runner.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

TEST(Daly, MatchesYoungForCheapCheckpoints) {
  // delta << M: Daly reduces to Young's sqrt(2 d M).
  const double m = 1e6;
  const double d = 1.0;
  EXPECT_NEAR(daly_interval_s(m, d), std::sqrt(2 * d * m), 0.02 * std::sqrt(2 * d * m));
}

TEST(Daly, ClampsWhenCheckpointsDominates) {
  EXPECT_DOUBLE_EQ(daly_interval_s(100.0, 200.0), 100.0);
  EXPECT_DOUBLE_EQ(daly_interval_s(100.0, 1000.0), 100.0);
}

TEST(Daly, RejectsNonPositiveInputs) {
  EXPECT_THROW((void)daly_interval_s(0, 1), Error);
  EXPECT_THROW((void)daly_interval_s(1, 0), Error);
}

TEST(Daly, IntervalToGates) {
  EXPECT_EQ(interval_to_gates(100.0, 10.0), 10u);
  EXPECT_EQ(interval_to_gates(5.0, 10.0), 1u);  // never below one gate
}

TEST(Recovery, ReplayIsBitIdenticalToFaultFreeRun) {
  Rng rng(5);
  const Circuit c = build_random(6, 60, rng);

  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  // Two failures at different points; checkpoint every 7 circuit gates.
  FaultInjector inj(parse_fault_plan("fail@20:1, fail@45:3"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions opts;
  opts.interval_gates = 7;
  const test::ScratchDir scratch("resilience_replay");
  opts.dir = scratch.path();
  const IntegrityStats stats = run_verified(sv, c, opts, GuardOptions{});

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.restarts, 2);
  EXPECT_GT(stats.checkpoints_written, 2);
  EXPECT_GT(stats.gates_replayed, 0u);
  ASSERT_EQ(stats.faults.size(), 2u);
  EXPECT_EQ(stats.faults[0].kind, FaultKind::kNodeFailure);

  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(clean.amplitude(i), sv.amplitude(i));
  }
}

TEST(Recovery, DisabledCheckpointingPropagatesNodeFailure) {
  Rng rng(6);
  const Circuit c = build_random(6, 30, rng);
  FaultInjector inj(parse_fault_plan("fail@10:0"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions opts;  // interval_gates = 0: resilience off
  EXPECT_THROW(run_verified(sv, c, opts, GuardOptions{}), NodeFailure);
}

TEST(Recovery, GivesUpAfterMaxRestarts) {
  // The same rank dies at every gate: each restart immediately re-fails.
  FaultPlan plan;
  for (std::uint64_t g = 0; g < 40; ++g) {
    plan.specs.push_back(
        FaultSpec{FaultKind::kNodeFailure, /*rank=*/0, 0, g, 0});
  }
  FaultInjector inj(plan);
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  Rng rng(7);
  const Circuit c = build_random(6, 30, rng);
  CheckpointOptions opts;
  opts.interval_gates = 5;
  const test::ScratchDir scratch("resilience_giveup");
  opts.dir = scratch.path();
  EXPECT_THROW(run_verified(sv, c, opts, GuardOptions{}), NodeFailure);
  EXPECT_EQ(inj.totals().node_failures,
            static_cast<std::uint64_t>(kMaxRestarts) + 1);
}

TEST(Recovery, FaultFreeRunNeedsNoRestarts) {
  Rng rng(8);
  const Circuit c = build_random(6, 25, rng);
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  DistStateVector<SoaStorage> sv(6, 4);
  CheckpointOptions opts;
  opts.interval_gates = 10;
  const test::ScratchDir scratch("resilience_faultfree");
  opts.dir = scratch.path();
  const IntegrityStats stats = run_verified(sv, c, opts, GuardOptions{});
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.gates_replayed, 0u);
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(clean.amplitude(i), sv.amplitude(i));
  }
}

// ---------------------------------------------------------------------------
// Expected-runtime/energy model.

TEST(ExpectedRun, FailureFreeMachineReproducesBaseReport) {
  MachineModel m = archer2();
  m.reliability.node_mtbf_s = 0;  // failure-free
  JobConfig job;
  job.num_qubits = 38;
  job.nodes = 64;
  const RunReport base = run_model(builtin_qft(38), m, job);

  // Checkpointing off on a failure-free machine: zero resilience delta.
  const ExpectedRun r = expected_run(m, job, base, 0.0);
  EXPECT_DOUBLE_EQ(r.wall_s, base.runtime_s);
  EXPECT_DOUBLE_EQ(r.expected_energy_j(), base.total_energy_j());
  EXPECT_DOUBLE_EQ(r.checkpoint_io_s, 0.0);
  EXPECT_DOUBLE_EQ(r.lost_work_s, 0.0);
  EXPECT_DOUBLE_EQ(r.restart_s, 0.0);
  EXPECT_DOUBLE_EQ(r.expected_failures, 0.0);
}

TEST(ExpectedRun, CheckpointsCostIoEvenWithoutFailures) {
  MachineModel m = archer2();
  m.reliability.node_mtbf_s = 0;
  JobConfig job;
  job.num_qubits = 38;
  job.nodes = 64;
  const RunReport base = run_model(builtin_qft(38), m, job);

  const double interval = base.runtime_s / 4;
  const ExpectedRun r = expected_run(m, job, base, interval);
  EXPECT_DOUBLE_EQ(r.checkpoint_io_s,
                   4 * checkpoint_write_s(m, job.num_qubits));
  EXPECT_DOUBLE_EQ(r.wall_s, base.runtime_s + r.checkpoint_io_s);
  EXPECT_GT(r.checkpoint_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(r.lost_work_energy_j, 0.0);
}

TEST(ExpectedRun, DalyOptimumBeatsOffOptimumIntervals) {
  const MachineModel m = archer2();
  JobConfig job;
  job.num_qubits = 44;
  job.nodes = 4096;
  // A long campaign (the regime where checkpointing pays): synthesise the
  // base report rather than pricing a huge circuit.
  RunReport base;
  base.job = job;
  base.runtime_s = 24 * 3600;
  base.node_energy_j = base.runtime_s * job.nodes * 400.0;
  base.switch_energy_j = m.switch_energy(job.nodes, base.runtime_s);

  const double mtbf = m.system_mtbf_s(job.nodes);
  const double delta = checkpoint_write_s(m, job.num_qubits);
  const double tau = daly_interval_s(mtbf, delta);

  const double opt = expected_run(m, job, base, tau).wall_s;
  EXPECT_LT(opt, expected_run(m, job, base, tau / 8).wall_s);
  EXPECT_LT(opt, expected_run(m, job, base, tau * 8).wall_s);
  EXPECT_LT(opt, expected_run(m, job, base, 0.0).wall_s);  // no checkpoints
}

TEST(ExpectedRun, ComponentsSumToWallTime) {
  const MachineModel m = archer2();
  JobConfig job;
  job.num_qubits = 43;
  job.nodes = 2048;
  RunReport base;
  base.job = job;
  base.runtime_s = 12 * 3600;
  base.node_energy_j = base.runtime_s * job.nodes * 400.0;
  base.switch_energy_j = m.switch_energy(job.nodes, base.runtime_s);

  const ExpectedRun r = expected_run(m, job, base, 5000.0);
  EXPECT_NEAR(r.wall_s,
              r.solve_s + r.checkpoint_io_s + r.lost_work_s + r.restart_s,
              1e-6 * r.wall_s);
  EXPECT_GT(r.expected_failures, 0.0);
  EXPECT_GT(r.lost_work_energy_j, 0.0);
  EXPECT_GT(r.restart_energy_j, 0.0);
}

TEST(CheckpointSweep, MarksTheOptimumAndItWins) {
  const CheckpointSweepResult res =
      experiment_checkpoint_sweep(archer2());
  ASSERT_EQ(res.configs.size(), 2u);
  EXPECT_EQ(res.configs[0].qubits, 43);
  EXPECT_EQ(res.configs[1].qubits, 44);

  int optimum_rows = 0;
  for (const auto& row : res.rows) {
    if (!row.optimum) {
      continue;
    }
    ++optimum_rows;
    // The marked optimum is the cheapest interval of its configuration.
    for (const auto& other : res.rows) {
      if (other.qubits == row.qubits) {
        EXPECT_LE(row.run.expected_energy_j(),
                  other.run.expected_energy_j() * (1 + 1e-9));
      }
    }
  }
  EXPECT_EQ(optimum_rows, 2);
}

TEST(CheckpointSweep, RequiresFiniteMtbf) {
  MachineModel m = archer2();
  m.reliability.node_mtbf_s = 0;
  EXPECT_THROW(experiment_checkpoint_sweep(m), Error);
}

TEST(RecoveryTiers, StaticOrderIsTheEnergyOrderAtHeadlineScale) {
  // The policy's static fallback order (substitute < shrink < restart) is
  // only honest if the closed-form energies actually rank that way at the
  // paper's configurations — this is the acceptance check for `qsv price`.
  const RecoveryTierSweepResult res = experiment_recovery_tiers(archer2());
  ASSERT_EQ(res.rows.size(), 2u);
  EXPECT_EQ(res.rows[0].qubits, 43);
  EXPECT_EQ(res.rows[1].qubits, 44);

  for (const auto& row : res.rows) {
    EXPECT_GT(row.substitute.energy_j, 0.0);
    EXPECT_LT(row.substitute.energy_j, row.shrink.energy_j);
    EXPECT_LT(row.shrink.energy_j, row.grow_back.energy_j);
    EXPECT_LT(row.grow_back.energy_j, row.restart.energy_j);
    EXPECT_GT(row.substitute.time_s, 0.0);
    EXPECT_GT(row.shrink.time_s, row.substitute.time_s);
    EXPECT_GT(row.grow_back.time_s, row.shrink.time_s);
    EXPECT_GT(row.restart.time_s, 0.0);
    EXPECT_GT(row.spare_pool_j, 0.0);
    EXPECT_GT(row.expected_failures, 0.0);
  }
}

TEST(RecoveryTiers, RequiresFiniteMtbf) {
  MachineModel m = archer2();
  m.reliability.node_mtbf_s = 0;
  EXPECT_THROW(experiment_recovery_tiers(m), Error);
}

}  // namespace
}  // namespace qsv
