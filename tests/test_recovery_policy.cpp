#include "dist/recovery_policy.hpp"

#include <gtest/gtest.h>

#include <string>

#include "circuit/builders.hpp"
#include "cluster/faults.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
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
  guards.slice_crc = true;
  const IntegrityStats stats = run_verified(sv, c, ck, guards);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.rollbacks, 0);
  EXPECT_GT(stats.guard_checks, 0u);
  EXPECT_EQ(stats.guard_violations, 0u);
  EXPECT_GT(stats.checkpoints_written, 0);
  EXPECT_TRUE(stats.faults.empty());
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
  ASSERT_EQ(stats.faults.size(), 1u);
  EXPECT_EQ(stats.faults[0].kind, FaultKind::kBitFlip);
  EXPECT_EQ(stats.faults[0].bit, 62);
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
  guards.slice_crc = true;  // restores verify against their signature
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

}  // namespace
}  // namespace qsv
