#include "dist/recovery_policy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "cluster/faults.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "machine/archer2.hpp"
#include "perf/cost_model.hpp"
#include "perf/runner.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

Circuit bench_circuit(int gates = 30) {
  Rng rng(11);
  return build_random(6, gates, rng);
}

void expect_bit_identical(const DistStateVector<SoaStorage>& a,
                          const DistStateVector<SoaStorage>& b) {
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(a.amplitude(i), b.amplitude(i)) << "amplitude " << i;
  }
}

TEST(RunVerified, FaultFreeRunMatchesPlainApply) {
  const Circuit c = bench_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  DistStateVector<SoaStorage> sv(6, 4);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("verified_faultfree");
  ck.dir = scratch.path();
  GuardOptions guards;
  guards.cadence_gates = 5;
  const IntegrityStats stats = run_verified(sv, c, ck, guards);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_GT(stats.guard_checks, 0u);
  EXPECT_EQ(stats.guard_violations, 0u);
  EXPECT_GT(stats.checkpoints_written, 0);
  expect_bit_identical(clean, sv);
}

TEST(RunVerified, BitflipIsDetectedRolledBackAndReplayedBitIdentical) {
  const Circuit c = bench_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  // Exponent-bit flip in rank 1's slice during gate 13: the next norm
  // check fires, the run rolls back to the gate-10 checkpoint, and the
  // replay (the spec is a one-shot latch) is clean.
  FaultInjector inj(parse_fault_plan("bitflip@13:1:62"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("verified_bitflip");
  ck.dir = scratch.path();
  GuardOptions guards;
  guards.cadence_gates = 1;
  const IntegrityStats stats = run_verified(sv, c, ck, guards);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.rollbacks, 1);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_GE(stats.guard_violations, 1u);
  EXPECT_GT(stats.gates_replayed, 0u);
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].kind, FaultKind::kBitFlip);
  EXPECT_EQ(inj.log()[0].bit, 62);
  expect_bit_identical(clean, sv);
}

TEST(RunVerified, ViolationWithoutCheckpointIsATypedAbort) {
  FaultInjector inj(parse_fault_plan("bitflip@13:1:62"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  GuardOptions guards;
  guards.cadence_gates = 1;
  try {
    run_verified(sv, bench_circuit(), CheckpointOptions{}, guards);
    FAIL() << "expected IntegrityAbort";
  } catch (const IntegrityAbort& e) {
    // The abort carries the forensics: rank (-1, a global invariant),
    // gate, and the underlying detection as the cause.
    EXPECT_EQ(e.rank(), -1);
    EXPECT_EQ(e.gate(), 13u);
    EXPECT_NE(e.cause().find("norm invariant"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("no checkpoint"),
              std::string::npos);
  }
}

TEST(RunVerified, ExhaustedRollbackBudgetIsATypedAbort) {
  // One bit flip per pass over circuit gates 10..13: each is caught at gate
  // 13 and rolls back to the checkpoint at gate 10. Bit-flip specs name the
  // engine's gate counter, which keeps counting through replays, so pass k
  // applies circuit gate 13 as engine gate 13 + 4k.
  std::string plan;
  for (int k = 0; k <= kMaxRollbacks; ++k) {
    plan += (k == 0 ? "" : ",");
    plan += "bitflip@" + std::to_string(13 + 4 * k) + ":1:62";
  }
  FaultInjector inj(parse_fault_plan(plan));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("verified_budget");
  ck.dir = scratch.path();
  GuardOptions guards;
  guards.cadence_gates = 1;
  try {
    run_verified(sv, bench_circuit(), ck, guards);
    FAIL() << "expected IntegrityAbort";
  } catch (const IntegrityAbort& e) {
    EXPECT_EQ(e.gate(), 13u);
    EXPECT_NE(std::string(e.what()).find("rollbacks exhausted"),
              std::string::npos);
  }
  EXPECT_EQ(inj.totals().bitflips,
            static_cast<std::uint64_t>(kMaxRollbacks) + 1);
}

TEST(RunVerified, NodeFailurePropagatesUnchangedWithoutCheckpointing) {
  FaultInjector inj(parse_fault_plan("fail@3:2"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  GuardOptions guards;
  guards.cadence_gates = 1;
  try {
    run_verified(sv, bench_circuit(), CheckpointOptions{}, guards);
    FAIL() << "expected NodeFailure";
  } catch (const NodeFailure& e) {
    // PR 2 semantics, preserved: the CLI still prints this exact message.
    EXPECT_STREQ(e.what(), "rank 2 failed at gate 3");
  }
}

TEST(RunVerified, NodeFailureRestartsFromCheckpoint) {
  const Circuit c = bench_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("verified_restart");
  ck.dir = scratch.path();
  GuardOptions guards;
  guards.cadence_gates = 2;
  const IntegrityStats stats = run_verified(sv, c, ck, guards);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_EQ(stats.rollbacks, 0);
  expect_bit_identical(clean, sv);
}

TEST(RunVerified, TransportCorruptionIsAbsorbedBelowThePolicy) {
  const Circuit c = bench_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  // An in-flight corruption is caught by the receiver's CRC recompute and
  // re-exchanged by the engine's bounded retry: the policy layer never
  // sees it, so no rollback happens and the result is still bit-identical.
  FaultInjector inj(parse_fault_plan("corrupt@2"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  GuardOptions guards;
  guards.cadence_gates = 1;
  const IntegrityStats stats =
      run_verified(sv, c, CheckpointOptions{}, guards);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.guard_violations, 0u);
  EXPECT_EQ(inj.totals().corrupted, 1u);
  EXPECT_GE(inj.totals().retries, 1u);
  EXPECT_GE(sv.comm_stats().checksum_failures, 1u);
  expect_bit_identical(clean, sv);
}

TEST(RunVerified, CadenceOneChecksAfterEveryGate) {
  const Circuit c = bench_circuit(10);
  DistStateVector<SoaStorage> sv(6, 4);
  GuardOptions guards;
  guards.cadence_gates = 1;
  const IntegrityStats stats =
      run_verified(sv, c, CheckpointOptions{}, guards);
  EXPECT_EQ(stats.guard_checks, c.size());
}

TEST(RunVerified, CadenceBeyondCircuitStillRunsTheFinalCheck) {
  const Circuit c = bench_circuit(10);
  DistStateVector<SoaStorage> sv(6, 4);
  GuardOptions guards;
  guards.cadence_gates = 1000;  // longer than the circuit
  const IntegrityStats stats =
      run_verified(sv, c, CheckpointOptions{}, guards);
  // Trailing corruption cannot slip out: the end-of-circuit check always
  // runs when guards are enabled.
  EXPECT_EQ(stats.guard_checks, 1u);
}

// --- one run loop: sweeping changes nothing a verified run reports ---------

/// 8 qubits on 4 ranks (6 local qubits), four layers of 11 gates: ten
/// rank-local gates a sweep tiles as one run (gates 0-9, 11-20, 22-31 and
/// 33-42), then a distributed H on a rank qubit. Every gate is one engine
/// gate, so fault specs name circuit gates here.
Circuit layered_circuit() {
  Circuit c(8, "layered");
  for (int layer = 0; layer < 4; ++layer) {
    for (qubit_t q = 0; q < 6; ++q) {
      c.add(make_ry(q, 0.3 + 0.1 * q + 0.2 * layer));
    }
    for (qubit_t q = 0; q + 1 < 6; q += 2) {
      c.add(make_cx(q, q + 1));
    }
    c.add(make_rz(7, 0.41 + layer));  // diagonal: local at any width
    c.add(make_h(6 + layer % 2));
  }
  return c;
}

struct LoopCase {
  std::string faults;
  ElasticOptions elastic;
};

/// What a verified run reports: its digest or the error that ended it, its
/// counters, the fault log, and what an attached cost model charged.
struct LoopRecord {
  std::string outcome;
  IntegrityStats stats;
  std::vector<FaultEvent> faults;
  double seconds = 0;
  double joules = 0;
  std::uint64_t sweep_runs = 0;
};

LoopRecord run_loop_case(const LoopCase& k, std::uint64_t guard_cadence,
                         std::uint64_t interval, bool sweep) {
  const Circuit c = layered_circuit();
  DistOptions opts;
  opts.sweep.enabled = sweep;
  DistStateVector<SoaStorage> sv(c.num_qubits(), 4, opts);
  JobConfig job;
  job.num_qubits = c.num_qubits();
  job.nodes = 4;
  const MachineModel machine = archer2();
  CostModel cost(machine, job);
  sv.set_listener(&cost);
  FaultInjector inj(parse_fault_plan(k.faults));
  sv.set_fault_injector(&inj);
  const test::ScratchDir scratch("one_loop");
  CheckpointOptions ck;
  ck.interval_gates = interval;
  ck.dir = scratch.path();
  GuardOptions guards;
  guards.cadence_gates = guard_cadence;
  RecoveryPolicy policy;
  policy.health.enabled = true;

  LoopRecord r;
  try {
    r.stats = run_verified(sv, c, ck, guards, policy, k.elastic);
    r.outcome = state_digest(sv);
  } catch (const Error& e) {
    r.outcome = e.what();
  }
  r.faults = inj.log();
  r.seconds = cost.report().runtime_s;
  r.joules = cost.report().total_energy_j();
  r.sweep_runs = sv.sweep_stats().runs;
  return r;
}

TEST(RunVerified, SweepingChangesNothingItReports) {
  ElasticOptions spare;
  spare.spares = 1;
  ElasticOptions grow;
  grow.allow_shrink = true;
  grow.allow_grow_back = true;
  ElasticOptions every = grow;
  every.spares = 1;
  // Each gate-indexed spec lands inside a would-be sweep run.
  const std::vector<LoopCase> cases = {
      {"", {}},
      {"fail@18:1", spare},
      {"bitflip@17:1:62", {}},
      {"fail@18:1, revive@20", grow},
      {"drop@2:1, bitflip@3:0:62, fail@27:2", every},
      {"revive@0, fail@35:3", grow},
  };
  std::uint64_t swept_runs = 0;
  for (const LoopCase& k : cases) {
    for (const std::uint64_t guard_cadence : {1, 3, 20}) {
      for (const std::uint64_t interval : {0, 5, 40}) {
        SCOPED_TRACE("faults '" + k.faults + "', guards " +
                     std::to_string(guard_cadence) + ", checkpoints every " +
                     std::to_string(interval));
        const LoopRecord swept =
            run_loop_case(k, guard_cadence, interval, true);
        const LoopRecord naive =
            run_loop_case(k, guard_cadence, interval, false);
        EXPECT_EQ(swept.outcome, naive.outcome);
        EXPECT_TRUE(swept.stats == naive.stats);
        EXPECT_TRUE(swept.stats.health == naive.stats.health);
        EXPECT_TRUE(swept.faults == naive.faults);
        EXPECT_EQ(swept.seconds, naive.seconds);
        EXPECT_EQ(swept.joules, naive.joules);
        EXPECT_EQ(naive.sweep_runs, 0u);
        swept_runs += swept.sweep_runs;
      }
    }
  }
  EXPECT_GT(swept_runs, 0u);
}

TEST(RunVerified, FailureInsideAWouldBeRunSubstitutesFromACleanBoundary) {
  // Checkpoints at 11, 22 and 33 follow each distributed gate. fail@18
  // cuts the sweep run from the gate-11 checkpoint at 18, so the failure
  // fires at a run's first gate and the seven gates since the checkpoint
  // replay on the spare alone.
  const Circuit c = layered_circuit();
  DistStateVector<SoaStorage> clean(8, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@18:1"));
  DistStateVector<SoaStorage> sv(8, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 11;
  const test::ScratchDir scratch("verified_sweep_substitute");
  ck.dir = scratch.path();
  ElasticOptions spare;
  spare.spares = 1;
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, RecoveryPolicy{}, spare);

  EXPECT_EQ(stats.tiers_used,
            std::vector<RecoveryTier>{RecoveryTier::kSubstitute});
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.gates_replayed, 7u);
  EXPECT_GT(sv.sweep_stats().swept_gates, 0u);
  EXPECT_EQ(state_digest(sv), state_digest(clean));
}

}  // namespace
}  // namespace qsv
