// Elastic recovery (PR 5): spare-node substitution and shrink-to-survive
// re-sharding, chosen by choose_tier and driven by run_verified. The
// standing contract under test: every recovered run's final amplitudes are
// bit-identical to the fault-free run's, whatever tier fired.
#include "dist/recovery_policy.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "cluster/faults.hpp"
#include "common/error.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/events.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

/// 20 single-kernel gates on 6 qubits / 4 ranks (local qubits 0..3).
/// Gates 0..9 entangle everything including the distributed qubits 4 and 5;
/// gates 10..19 are local-only, so with checkpoint interval 5 a failure in
/// [10, 20) has a solo-replayable window and substitution/shrink are live.
Circuit elastic_circuit() {
  Circuit c(6, "elastic");
  c.add(make_h(4));          // 0: distributed
  c.add(make_h(0));          // 1
  c.add(make_cx(0, 1));      // 2
  c.add(make_rz(1, 0.37));   // 3
  c.add(make_h(2));          // 4
  c.add(make_cx(2, 3));      // 5
  c.add(make_h(5));          // 6: distributed
  c.add(make_rx(3, 0.81));   // 7
  c.add(make_cz(0, 2));      // 8
  c.add(make_ry(1, 1.13));   // 9
  for (int i = 0; i < 5; ++i) {  // 10..19: local window
    c.add(make_rz(i % 4, 0.29 + 0.11 * i));
    c.add(make_cx((i + 1) % 4, (i + 2) % 4));
  }
  return c;
}

template <class A, class B>
void expect_global_identical(const A& a, const B& b) {
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(a.amplitude(i), b.amplitude(i)) << "amplitude " << i;
  }
}

/// Feasibility facts of a clean boundary failure on a healthy 4-rank run.
TierContext clean_context() {
  TierContext ctx;
  ctx.clean_boundary = true;
  ctx.window_replayable = true;
  ctx.checkpoint_exists = true;
  ctx.spares_left = 1;
  ctx.num_ranks = 4;
  return ctx;
}

ElasticOptions all_tiers() {
  ElasticOptions opts;
  opts.spares = 1;
  opts.allow_shrink = true;
  return opts;
}

TEST(ChooseTier, StaticOrderPicksSubstituteWhenAllFeasible) {
  const TierDecision d = choose_tier(all_tiers(), clean_context());
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kSubstitute);
  EXPECT_NE(d.reason.find("static cheapest-first"), std::string::npos);
}

TEST(ChooseTier, ExpectedEnergyOverridesTheStaticOrder) {
  ElasticOptions opts = all_tiers();
  opts.substitute_energy_j = 9.0;
  opts.shrink_energy_j = 5.0;
  opts.restart_energy_j = 7.0;
  const TierDecision d = choose_tier(opts, clean_context());
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kShrink);
  EXPECT_NE(d.reason.find("cheapest by expected energy"), std::string::npos);
}

TEST(ChooseTier, PartialPricingFallsBackToStaticOrder) {
  // One feasible tier unpriced: comparing a priced tier against an unknown
  // one would be a guess, so the static order decides.
  ElasticOptions opts = all_tiers();
  opts.substitute_energy_j = 9.0;
  opts.shrink_energy_j = 5.0;  // restart stays -1 (unknown)
  const TierDecision d = choose_tier(opts, clean_context());
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kSubstitute);
}

TEST(ChooseTier, NoSpareFallsToShrink) {
  TierContext ctx = clean_context();
  ctx.spares_left = 0;
  const TierDecision d = choose_tier(all_tiers(), ctx);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kShrink);
  EXPECT_NE(d.reason.find("no spare"), std::string::npos);
}

TEST(ChooseTier, DirtyBoundaryLeavesOnlyRestart) {
  // Mid-exchange failure: surviving slices are not consistent pre-gate
  // state, so only the full restart can recover.
  TierContext ctx = clean_context();
  ctx.clean_boundary = false;
  ctx.window_replayable = false;
  const TierDecision d = choose_tier(all_tiers(), ctx);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kRestart);
  EXPECT_NE(d.reason.find("clean gate boundary"), std::string::npos);
}

TEST(ChooseTier, DistributedWindowLeavesOnlyRestart) {
  TierContext ctx = clean_context();
  ctx.window_replayable = false;
  const TierDecision d = choose_tier(all_tiers(), ctx);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kRestart);
  EXPECT_NE(d.reason.find("distributed gates"), std::string::npos);
}

TEST(ChooseTier, NoCheckpointMeansNothingIsFeasible) {
  TierContext ctx = clean_context();
  ctx.checkpoint_exists = false;
  const TierDecision d = choose_tier(all_tiers(), ctx);
  EXPECT_FALSE(d.feasible);
  EXPECT_NE(d.reason.find("no feasible tier"), std::string::npos);
}

TEST(ChooseTier, DisabledTiersAreRejectedWithAReason) {
  ElasticOptions opts = all_tiers();
  opts.allow_substitute = false;
  opts.allow_shrink = false;
  opts.allow_restart = false;
  const TierDecision d = choose_tier(opts, clean_context());
  EXPECT_FALSE(d.feasible);
  EXPECT_NE(d.reason.find("disabled"), std::string::npos);
}

TEST(ParseRecoveryTiers, NamedTiersAreEnabledOthersOff) {
  const ElasticOptions opts = parse_recovery_tiers("substitute, shrink");
  EXPECT_TRUE(opts.allow_substitute);
  EXPECT_TRUE(opts.allow_shrink);
  EXPECT_FALSE(opts.allow_restart);
}

TEST(ParseRecoveryTiers, RetryAloneIsValidButEnablesNothing) {
  // The retry tier lives in the engine and is always on; naming only it
  // gives a policy with no driver-level recovery.
  const ElasticOptions opts = parse_recovery_tiers("retry");
  EXPECT_FALSE(opts.allow_substitute);
  EXPECT_FALSE(opts.allow_shrink);
  EXPECT_FALSE(opts.allow_restart);
}

TEST(ParseRecoveryTiers, RejectsUnknownAndEmpty) {
  EXPECT_THROW((void)parse_recovery_tiers("explode"), Error);
  EXPECT_THROW((void)parse_recovery_tiers(""), Error);
  EXPECT_THROW((void)parse_recovery_tiers(" , "), Error);
}

TEST(Elastic, SubstituteRecoversBitIdenticalOnlyTheSpareReplays) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_substitute");
  ck.dir = scratch.path();
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, RecoveryPolicy{}, all_tiers());

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.substitutions, 1);
  EXPECT_EQ(stats.shrinks, 0);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.final_ranks, 4);
  ASSERT_EQ(stats.tiers_used.size(), 1u);
  EXPECT_EQ(stats.tiers_used[0], RecoveryTier::kSubstitute);
  // Only the window [10, 12) replays, on the rebuilt rank alone.
  EXPECT_EQ(stats.gates_replayed, 2u);
  // The spare took over the rank id: the slot is alive again.
  EXPECT_FALSE(inj.rank_dead(1));
  expect_global_identical(clean, sv);
}

TEST(Elastic, SubstituteEmitsOnePricedRecoveryEvent) {
  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  RecordingListener rec;
  sv.set_listener(&rec);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_substitute_events");
  ck.dir = scratch.path();
  (void)run_verified(sv, elastic_circuit(), ck, GuardOptions{},
                     RecoveryPolicy{}, all_tiers());

  std::vector<ExecEvent> recovery;
  for (const ExecEvent& e : rec.events()) {
    if (e.kind == ExecEvent::Kind::kRecovery) {
      recovery.push_back(e);
    }
  }
  ASSERT_EQ(recovery.size(), 1u);
  EXPECT_EQ(recovery[0].recovery_tier, RecoveryTier::kSubstitute);
  // One slice read from the checkpoint, on 1/4 of the machine.
  EXPECT_EQ(recovery[0].recovery_io_bytes,
            static_cast<std::uint64_t>(sv.local_amps()) * kBytesPerAmp);
  EXPECT_DOUBLE_EQ(recovery[0].participating_fraction, 0.25);
  EXPECT_EQ(recovery[0].recovery_bytes_per_rank, 0u);
  EXPECT_EQ(recovery[0].recovery_replayed_gates, 2u);
}

TEST(Elastic, ShrinkRecoversAtHalfWidthBitIdentical) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_shrink");
  ck.dir = scratch.path();
  ElasticOptions elastic = all_tiers();
  elastic.spares = 0;  // no spare: shrink is the cheapest feasible tier
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, RecoveryPolicy{}, elastic);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.substitutions, 0);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.final_ranks, 2);
  EXPECT_EQ(sv.num_ranks(), 2);
  ASSERT_EQ(stats.tiers_used.size(), 1u);
  EXPECT_EQ(stats.tiers_used[0], RecoveryTier::kShrink);
  // The run continued degraded and still lands on the fault-free state.
  expect_global_identical(clean, sv);
}

TEST(Elastic, ShrinkEmitsIoAndNetworkRecoveryEvents) {
  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  RecordingListener rec;
  sv.set_listener(&rec);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_shrink_events");
  ck.dir = scratch.path();
  ElasticOptions elastic = all_tiers();
  elastic.spares = 0;
  (void)run_verified(sv, elastic_circuit(), ck, GuardOptions{},
                     RecoveryPolicy{}, elastic);

  std::vector<ExecEvent> recovery;
  for (const ExecEvent& e : rec.events()) {
    if (e.kind == ExecEvent::Kind::kRecovery) {
      recovery.push_back(e);
    }
  }
  // One checkpoint-slice read plus one re-shard movement, both shrink-tier.
  ASSERT_EQ(recovery.size(), 2u);
  EXPECT_EQ(recovery[0].recovery_tier, RecoveryTier::kShrink);
  EXPECT_GT(recovery[0].recovery_io_bytes, 0u);
  EXPECT_EQ(recovery[1].recovery_tier, RecoveryTier::kShrink);
  EXPECT_GT(recovery[1].recovery_bytes_per_rank, 0u);
  EXPECT_GT(recovery[1].recovery_messages_per_rank, 0);
  // One of the two new ranks' pairs moves a slice over the wire (the dead
  // pair merges via the checkpoint read): 2 of 4 old ranks participate.
  EXPECT_DOUBLE_EQ(recovery[1].participating_fraction, 0.5);
}

/// Runs the elastic workload on 4 ranks of `opts`'s engine with no spare,
/// so rank 1's failure at gate 12 shrinks, under `faults`. Checks that the
/// run finished at half width on the clean state after `retries` retried
/// shrink moves.
void expect_shrink_survives(const char* faults, const DistOptions& opts,
                            std::uint64_t retries) {
  SCOPED_TRACE(faults);
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan(faults));
  DistStateVector<SoaStorage> sv(6, 4, opts);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_shrink_retry");
  ck.dir = scratch.path();
  ElasticOptions elastic = all_tiers();
  elastic.spares = 0;
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, RecoveryPolicy{}, elastic);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.final_ranks, 2);
  EXPECT_EQ(stats.gates_replayed, 2u);
  EXPECT_EQ(inj.totals().retries, retries);
  expect_global_identical(clean, sv);
}

DistOptions rank_threads() {
  DistOptions o;
  o.threading.threads = 4;
  return o;
}

// Every rank sends one message in each of gates 0 and 6, so rank 3's third
// send is the shrink's one move (pair (2, 3); the pair holding rank 1
// merges locally), on either engine.
TEST(Elastic, DroppedShrinkMoveIsRetried) {
  expect_shrink_survives("fail@12:1, drop@3:3", DistOptions{}, 1);
  expect_shrink_survives("fail@12:1, drop@3:3", rank_threads(), 1);
}

TEST(Elastic, CorruptedShrinkMoveIsRetried) {
  expect_shrink_survives("fail@12:1, corrupt@3:3", DistOptions{}, 1);
  expect_shrink_survives("fail@12:1, corrupt@3:3", rank_threads(), 1);
}

TEST(Elastic, ExhaustedShrinkRetriesFallBackToRestart) {
  // kMaxRetries + 1 drops: every attempt of the move is lost, the engine is
  // left at full width, and run_verified restarts from the checkpoint.
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan(
      "fail@12:1, drop@3:3, drop@4:3, drop@5:3, drop@6:3"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_shrink_exhausted");
  ck.dir = scratch.path();
  ElasticOptions elastic = all_tiers();
  elastic.spares = 0;
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, RecoveryPolicy{}, elastic);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 0);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_EQ(stats.final_ranks, 4);
  EXPECT_EQ(sv.num_ranks(), 4);
  EXPECT_EQ(inj.totals().dropped, 4u);
  EXPECT_EQ(inj.totals().retries, static_cast<std::uint64_t>(kMaxRetries));
  ASSERT_EQ(stats.tiers_used.size(), 1u);
  EXPECT_EQ(stats.tiers_used[0], RecoveryTier::kRestart);
  expect_global_identical(clean, sv);
}

TEST(Elastic, SecondFailureAfterShrinkShrinksAgain) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  // Rank 1 dies at gate 12 (shrink 4 -> 2), then the new rank 1 dies at
  // gate 16 (shrink 2 -> 1): the run finishes on a single rank.
  FaultInjector inj(parse_fault_plan("fail@12:1, fail@16:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_shrink_twice");
  ck.dir = scratch.path();
  ElasticOptions elastic = all_tiers();
  elastic.spares = 0;
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, RecoveryPolicy{}, elastic);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 2);
  EXPECT_EQ(stats.final_ranks, 1);
  EXPECT_EQ(sv.num_ranks(), 1);
  expect_global_identical(clean, sv);
}

TEST(Elastic, DistributedReplayWindowFallsBackToRestart) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  // Failure at gate 7: the window [5, 7) contains the distributed H on
  // qubit 5 (gate 6), so no solo replay is possible — even with a spare
  // and shrink enabled, the policy must take the full restart.
  FaultInjector inj(parse_fault_plan("fail@7:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_dirty_window");
  ck.dir = scratch.path();
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, RecoveryPolicy{}, all_tiers());

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_EQ(stats.substitutions, 0);
  EXPECT_EQ(stats.shrinks, 0);
  EXPECT_EQ(stats.final_ranks, 4);
  ASSERT_EQ(stats.tiers_used.size(), 1u);
  EXPECT_EQ(stats.tiers_used[0], RecoveryTier::kRestart);
  expect_global_identical(clean, sv);
}

TEST(Elastic, EverythingDisabledRethrowsTheNodeFailure) {
  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_disabled");
  ck.dir = scratch.path();
  ElasticOptions elastic;
  elastic.allow_substitute = false;
  elastic.allow_shrink = false;
  elastic.allow_restart = false;
  EXPECT_THROW(run_verified(sv, elastic_circuit(), ck, GuardOptions{},
                            RecoveryPolicy{}, elastic),
               NodeFailure);
}

TEST(Elastic, SpareIsConsumedSecondFailureUsesTheNextTier) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1, fail@16:2"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_spare_then_shrink");
  ck.dir = scratch.path();
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, RecoveryPolicy{}, all_tiers());

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.substitutions, 1);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.final_ranks, 2);
  ASSERT_EQ(stats.tiers_used.size(), 2u);
  EXPECT_EQ(stats.tiers_used[0], RecoveryTier::kSubstitute);
  EXPECT_EQ(stats.tiers_used[1], RecoveryTier::kShrink);
  expect_global_identical(clean, sv);
}

TEST(Elastic, FaultFreeRunWithElasticOptionsIsZeroDelta) {
  // Same driver, PR 4 default options, as the reference: enabling the
  // elastic tiers must not change a fault-free run's event stream at all.
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  RecordingListener clean_rec;
  clean.set_listener(&clean_rec);
  (void)run_verified(clean, c, CheckpointOptions{}, GuardOptions{});

  DistStateVector<SoaStorage> sv(6, 4);
  RecordingListener rec;
  sv.set_listener(&rec);
  const IntegrityStats stats =
      run_verified(sv, c, CheckpointOptions{}, GuardOptions{},
                   RecoveryPolicy{}, all_tiers());

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.substitutions, 0);
  EXPECT_EQ(stats.shrinks, 0);
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_TRUE(stats.tiers_used.empty());
  EXPECT_EQ(stats.final_ranks, 4);
  // Event-stream identity: no kRecovery events, nothing re-priced.
  EXPECT_EQ(clean_rec.events(), rec.events());
  expect_global_identical(clean, sv);
}

TEST(Elastic, GuardsStayOnAcrossAShrink) {
  // Guards + shrink: the per-rank checkpoint signature describes the old
  // width, so it is invalidated at the shrink and recaptured later; guard
  // checks keep passing on the merged slices.
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("elastic_shrink_guards");
  ck.dir = scratch.path();
  GuardOptions guards;
  guards.cadence_gates = 2;
  guards.slice_crc = true;
  ElasticOptions elastic = all_tiers();
  elastic.spares = 0;
  const IntegrityStats stats =
      run_verified(sv, c, ck, guards, RecoveryPolicy{}, elastic);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.guard_violations, 0u);
  EXPECT_GT(stats.guard_checks, 0u);
  expect_global_identical(clean, sv);
}

}  // namespace
}  // namespace qsv
