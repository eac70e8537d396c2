// Elastic grow-back (PR 7): the inverse re-shard that restores a shrunk run
// to its planned width when a replacement node arrives, the online health
// monitor that tracks rank liveness observationally, the revive stream that
// arms it, and the machine-derived tier energies that rank the tiers.
//
// The standing contract: shrink -> grow-back lands on amplitudes
// bit-identical to the clean run, in the serial and threaded engines, under
// every fault schedule tried here.
#include "dist/recovery_policy.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "cluster/faults.hpp"
#include "cluster/health.hpp"
#include "common/error.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/events.hpp"
#include "dist/plan.hpp"
#include "dist/snapshot.hpp"
#include "machine/archer2.hpp"
#include "perf/cost_model.hpp"
#include "perf/resilience_model.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

/// The elastic reference workload (see test_elastic.cpp): distributed gates
/// in [0, 10), a rank-local tail in [10, 20), so a failure at gate 12 is
/// recoverable by every tier from the gate-10 checkpoint.
Circuit elastic_circuit() {
  Circuit c(6, "elastic");
  c.add(make_h(4));
  c.add(make_h(0));
  c.add(make_cx(0, 1));
  c.add(make_rz(1, 0.37));
  c.add(make_h(2));
  c.add(make_cx(2, 3));
  c.add(make_h(5));
  c.add(make_rx(3, 0.81));
  c.add(make_cz(0, 2));
  c.add(make_ry(1, 1.13));
  for (int i = 0; i < 5; ++i) {
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

DistOptions threaded_opts(int ranks) {
  DistOptions o;
  o.threading.threads = ranks;
  o.threading.placement = PlacementPolicy::kCompact;
  return o;
}

ElasticOptions grow_back_tiers() {
  ElasticOptions opts;
  opts.allow_shrink = true;
  opts.allow_grow_back = true;
  return opts;
}

// --- plan ------------------------------------------------------------------

TEST(PlanReshard, GrowDoublesTheWidthAndHalvesTheSlices) {
  const ReshardPlan p = plan_reshard(6, 4, 8, -1, 1 << 20);
  EXPECT_EQ(p.old_ranks, 4);
  EXPECT_EQ(p.new_ranks, 8);
  EXPECT_EQ(p.moving_pairs, 4);  // every survivor ships its top half
  EXPECT_EQ(p.bytes_per_move, 8u * kBytesPerAmp);  // one 2^(4-1) slice
  EXPECT_EQ(p.messages_per_move, 1);
  EXPECT_EQ(p.rebuild_io_bytes, 0u);  // the data is resident
  // 2 -> 4 moves every pair too.
  const ReshardPlan two = plan_reshard(6, 5, 4, -1, 1 << 20);
  EXPECT_EQ(two.moving_pairs, 2);
  EXPECT_EQ(two.bytes_per_move, 16u * kBytesPerAmp);
}

TEST(PlanReshard, ShrinkMergesTheRebuiltPairWithoutTraffic) {
  // 4 -> 2: the pair (0, 1) holds the rebuilt rank 1 and merges locally,
  // so only the pair (2, 3) ships its high half, one 16-amp wide slice.
  const ReshardPlan p = plan_reshard(6, 4, 2, 1, 1 << 20);
  EXPECT_EQ(p.old_ranks, 4);
  EXPECT_EQ(p.new_ranks, 2);
  EXPECT_EQ(p.moving_pairs, 1);
  EXPECT_EQ(p.bytes_per_move, 16u * kBytesPerAmp);
  EXPECT_EQ(p.messages_per_move, 1);
  EXPECT_EQ(p.rebuild_io_bytes, 16u * kBytesPerAmp);
  // Without a rebuilt slice every pair moves and nothing is read.
  const ReshardPlan all = plan_reshard(6, 4, 2, -1, 1 << 20);
  EXPECT_EQ(all.moving_pairs, 2);
  EXPECT_EQ(all.rebuild_io_bytes, 0u);
}

TEST(PlanReshard, ChunksMovesByMessageCap) {
  // 8-amp slices moved under a 2-amp message cap: 4 messages per pair.
  const std::size_t cap = 2 * static_cast<std::size_t>(kBytesPerAmp);
  EXPECT_EQ(plan_reshard(6, 4, 8, -1, cap).messages_per_move, 4);
  // A shrink moves the wider 16-amp slice: 8 messages.
  EXPECT_EQ(plan_reshard(6, 4, 2, 1, cap).messages_per_move, 8);
}

TEST(PlanReshard, SingleRankGrowsToTwo) {
  const ReshardPlan p = plan_reshard(6, 6, 2, -1, 1 << 20);
  EXPECT_EQ(p.old_ranks, 1);
  EXPECT_EQ(p.new_ranks, 2);
  EXPECT_EQ(p.moving_pairs, 1);
}

TEST(PlanReshard, RefusesSubTwoAmplitudeSlices) {
  // local_qubits == 1: splitting again would leave sub-two-amp slices.
  EXPECT_THROW((void)plan_reshard(6, 1, 64, -1, 1 << 20), Error);
}

TEST(PlanReshard, RefusesToShrinkOneRank) {
  EXPECT_THROW((void)plan_reshard(6, 6, 1, -1, 1 << 20), Error);
  EXPECT_THROW((void)plan_reshard(6, 6, 0, -1, 1 << 20), Error);
}

TEST(PlanReshard, RefusesAWidthNeitherHalfNorDouble) {
  EXPECT_THROW((void)plan_reshard(6, 4, 4, -1, 1 << 20), Error);
  EXPECT_THROW((void)plan_reshard(6, 4, 1, -1, 1 << 20), Error);
  EXPECT_THROW((void)plan_reshard(6, 4, 16, -1, 1 << 20), Error);
  EXPECT_THROW((void)plan_reshard(6, 4, 3, -1, 1 << 20), Error);
}

TEST(PlanReshard, OnlyAShrinkMergesARebuiltRank) {
  EXPECT_THROW((void)plan_reshard(6, 4, 8, 1, 1 << 20), Error);
  EXPECT_THROW((void)plan_reshard(6, 4, 2, 4, 1 << 20), Error);
  EXPECT_THROW((void)plan_reshard(6, 4, 2, -2, 1 << 20), Error);
}

// --- engine ----------------------------------------------------------------

TEST(GrowBack, InverseOfShrinkIsBitIdenticalSerial) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  DistStateVector<SoaStorage> sv(6, 4);
  sv.apply(c);
  (void)sv.reshard(2, 1);
  EXPECT_EQ(sv.num_ranks(), 2);
  const ReshardPlan p = sv.reshard(4);
  EXPECT_EQ(p.new_ranks, 4);
  EXPECT_EQ(sv.num_ranks(), 4);
  expect_global_identical(clean, sv);
}

TEST(GrowBack, InverseOfShrinkIsBitIdenticalThreaded) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  DistStateVector<SoaStorage> sv(6, 4, threaded_opts(4));
  sv.apply(c);
  (void)sv.reshard(2, 1);
  (void)sv.reshard(4);
  EXPECT_EQ(sv.num_ranks(), 4);
  expect_global_identical(clean, sv);
  // The re-grown engine keeps working at the restored width.
  sv.apply(make_h(5));
  clean.apply(make_h(5));
  expect_global_identical(clean, sv);
}

TEST(GrowBack, ToFullRepeatsTheDoubling) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  DistStateVector<SoaStorage> sv(6, 4);
  sv.apply(c);
  (void)sv.reshard(2, 1);
  (void)sv.reshard(1, 0);
  EXPECT_EQ(sv.num_ranks(), 1);
  (void)sv.reshard(2);
  EXPECT_EQ(sv.num_ranks(), 2);
  (void)sv.reshard(4);
  EXPECT_EQ(sv.num_ranks(), 4);
  expect_global_identical(clean, sv);
  // One rank owns no recv buffer; the regrown engine exchanges again.
  sv.apply(make_h(5));
  clean.apply(make_h(5));
  expect_global_identical(clean, sv);
}

TEST(GrowBack, ThreadedEngineRefusesToGrowBeyondConstructedWidth) {
  // The rank team was sized at construction; grow-back restores width, it
  // does not invent workers.
  DistStateVector<SoaStorage> sv(6, 4, threaded_opts(4));
  EXPECT_THROW((void)sv.reshard(8), Error);
}

TEST(GrowBack, CorruptedHandoffIsCaughtByCrcAndRetried) {
  // A bitflip in a handoff payload: the per-message CRC catches it and the
  // engine's with_retry re-sends, so the grown state is still exact.
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  DistStateVector<SoaStorage> sv(6, 4);
  sv.apply(c);
  (void)sv.reshard(2, 1);
  // Every message from here on is a grow-back handoff; corrupt rank 0's
  // next send (the first chunk it ships to revived rank 1).
  FaultInjector inj(parse_fault_plan("corrupt@1:0"));
  sv.set_fault_injector(&inj);
  (void)sv.reshard(4);
  EXPECT_GT(inj.totals().corrupted, 0u);
  EXPECT_GT(inj.totals().retries, 0u);
  expect_global_identical(clean, sv);
}

// --- revive stream ---------------------------------------------------------

TEST(Revive, ParsesAndDrainsAsAOneShotStream) {
  FaultInjector inj(parse_fault_plan("revive@16, revive@30:2"));
  EXPECT_EQ(inj.pending_revivals(), 2u);
  EXPECT_EQ(inj.take_revivals(15), 0u);
  EXPECT_EQ(inj.take_revivals(16), 1u);
  EXPECT_EQ(inj.pending_revivals(), 1u);
  EXPECT_EQ(inj.take_revivals(16), 0u);  // one-shot: already fired
  EXPECT_EQ(inj.take_revivals(64), 1u);
  EXPECT_EQ(inj.pending_revivals(), 0u);
  EXPECT_EQ(inj.totals().revivals, 2u);
}

TEST(Revive, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fault_plan("revive"), Error);
  EXPECT_THROW((void)parse_fault_plan("rezive@4"), Error);
}

// --- health monitor --------------------------------------------------------

TEST(Health, PiggybackedBeatsKeepEveryRankUnsuspected) {
  HealthMonitor mon(4);
  for (std::uint64_t g = 1; g <= 32; ++g) {
    mon.observe(g, /*exchanged=*/true);
  }
  for (rank_t r = 0; r < 4; ++r) {
    EXPECT_FALSE(mon.suspected(r)) << "rank " << r;
    EXPECT_LT(mon.phi(r, 32), 1.0) << "rank " << r;
  }
  EXPECT_EQ(mon.stats().beats, 4u * 32u);
  EXPECT_EQ(mon.stats().suspicions, 0u);
}

TEST(Health, OneStragglerNeverTripsSuspicion) {
  // The hysteresis contract: a single missed beat raises phi but stays far
  // below the suspicion threshold, so no re-shard pressure from one
  // straggle.
  HealthMonitor mon(4);
  for (std::uint64_t g = 1; g <= 8; ++g) {
    mon.observe(g, true);
  }
  mon.observe(9, true, {rank_t{1}});  // rank 1 straggles once
  mon.observe(10, true);
  EXPECT_FALSE(mon.suspected(1));
  EXPECT_EQ(mon.stats().suspicions, 0u);
}

TEST(Health, SustainedSilenceSuspectsThenABeatClears) {
  HealthMonitor mon(4);
  std::uint64_t g = 1;
  for (; g <= 8; ++g) {
    mon.observe(g, true);
  }
  // Rank 1 goes silent: phi accrues one mean-interval per missed gate and
  // crosses the suspect threshold (8.0) only after sustained silence.
  std::vector<rank_t> missed = {rank_t{1}};
  for (; g <= 24 && !mon.suspected(1); ++g) {
    mon.observe(g, true, missed);
  }
  EXPECT_TRUE(mon.suspected(1));
  EXPECT_EQ(mon.stats().suspicions, 1u);
  // One fresh beat collapses phi below the clear threshold (1.0):
  // hysteresis clears.
  mon.observe(g, true);
  EXPECT_FALSE(mon.suspected(1));
  EXPECT_EQ(mon.stats().clears, 1u);
}

TEST(Health, IdleProbeCoversLocalStretches) {
  HealthMonitor mon(2);
  mon.observe(1, true);
  // A long local stretch: no exchanges, probes fire at the cadence.
  for (std::uint64_t g = 2; g <= 20; ++g) {
    mon.observe(g, false);
  }
  EXPECT_GT(mon.stats().probes, 0u);
  EXPECT_FALSE(mon.suspected(0));
  EXPECT_FALSE(mon.suspected(1));
}

TEST(Health, ConfirmedFailureStopsAccruingSuspicion) {
  HealthMonitor mon(4);
  for (std::uint64_t g = 1; g <= 8; ++g) {
    mon.observe(g, true);
  }
  mon.confirm_failure(1, 9);
  for (std::uint64_t g = 9; g <= 64; ++g) {
    mon.observe(g, true, {rank_t{1}});
  }
  EXPECT_FALSE(mon.suspected(1));  // dead, not late
  EXPECT_EQ(mon.phi(1, 64), 0.0);
  EXPECT_EQ(mon.stats().confirmed, 1u);
  EXPECT_EQ(mon.stats().suspicions, 0u);
}

TEST(Health, ResetWidthRestartsTheBookkeeping) {
  HealthMonitor mon(4);
  for (std::uint64_t g = 1; g <= 8; ++g) {
    mon.observe(g, true);
  }
  mon.reset_width(2, 8);
  EXPECT_EQ(mon.num_ranks(), 2);
  EXPECT_FALSE(mon.suspected(0));
  mon.reset_width(8, 12);
  EXPECT_EQ(mon.num_ranks(), 8);
  EXPECT_EQ(mon.phi(7, 12), 0.0);  // freshly alive at the reset gate
}

// --- choose_tier -----------------------------------------------------------

TierContext grow_back_context() {
  TierContext ctx;
  ctx.clean_boundary = true;
  ctx.window_replayable = true;
  ctx.checkpoint_exists = true;
  ctx.spares_left = 0;
  ctx.num_ranks = 4;
  ctx.replacement_expected = true;
  return ctx;
}

TEST(ChooseTier, GrowBackSupersedesShrinkWhenReplacementExpected) {
  const std::optional<RecoveryTier> d =
      choose_tier(grow_back_tiers(), grow_back_context());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kGrowBack);
}

TEST(ChooseTier, NoExpectedReplacementFallsBackToPlainShrink) {
  TierContext ctx = grow_back_context();
  ctx.replacement_expected = false;
  const std::optional<RecoveryTier> d = choose_tier(grow_back_tiers(), ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kShrink);
}

TEST(ChooseTier, GeometryMismatchLeavesOnlyRestart) {
  // A checkpoint written before a re-shard: rank-slice tiers (substitute,
  // shrink, grow-back) cannot adopt it; the width-agnostic restart can.
  ElasticOptions opts = grow_back_tiers();
  opts.spares = 1;
  TierContext ctx = grow_back_context();
  ctx.spares_left = 1;
  ctx.checkpoint_geometry_matches = false;
  const std::optional<RecoveryTier> d = choose_tier(opts, ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kRestart);
}

TEST(ChooseTier, MachineEnergiesRankGrowBackBetweenShrinkAndRestart) {
  ElasticOptions opts = grow_back_tiers();
  opts.allow_substitute = false;
  opts.shrink_energy_j = 5.0;
  opts.grow_back_energy_j = 7.0;
  opts.restart_energy_j = 50.0;
  // Shrink is rejected (superseded), so grow-back wins over restart on
  // energy even though it is dearer than the shrink it replaces.
  const std::optional<RecoveryTier> d = choose_tier(opts, grow_back_context());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kGrowBack);
}

TEST(ParseRecoveryTiers, GrowBackIsANamedTier) {
  const ElasticOptions opts = parse_recovery_tiers("shrink, grow-back");
  EXPECT_TRUE(opts.allow_shrink);
  EXPECT_TRUE(opts.allow_grow_back);
  EXPECT_FALSE(opts.allow_substitute);
  EXPECT_FALSE(opts.allow_restart);
}

// --- run_verified end-to-end -----------------------------------------------

TEST(GrowBackDriver, ReviveMidRunRestoresFullWidthBitIdentical) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  // Rank 1 dies at gate 12 (shrink under the grow-back tier), the
  // replacement arrives at gate 16 (grow back to 4 ranks mid-run).
  FaultInjector inj(parse_fault_plan("fail@12:1, revive@16"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("growback_revive");
  ck.dir = scratch.path();
  RecoveryPolicy policy;
  policy.health.enabled = true;
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, policy, grow_back_tiers());

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.grow_backs, 1);
  EXPECT_EQ(inj.totals().revivals, 1u);
  EXPECT_EQ(stats.planned_ranks, 4);
  EXPECT_EQ(stats.final_ranks, 4);
  EXPECT_EQ(sv.num_ranks(), 4);
  EXPECT_EQ(stats.degraded_gates, 0u);  // back at plan before the end
  ASSERT_EQ(stats.tiers_used.size(), 2u);
  EXPECT_EQ(stats.tiers_used[0], RecoveryTier::kGrowBack);  // the shrink leg
  EXPECT_EQ(stats.tiers_used[1], RecoveryTier::kGrowBack);  // the re-expand
  EXPECT_EQ(stats.health.confirmed, 1u);
  EXPECT_EQ(stats.health.replacements, 1u);
  expect_global_identical(clean, sv);
}

TEST(GrowBackDriver, ThreadedEngineMatchesTheSerialDigest) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1, revive@16"));
  DistStateVector<SoaStorage> sv(6, 4, threaded_opts(4));
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("growback_threaded");
  ck.dir = scratch.path();
  const IntegrityStats stats = run_verified(sv, c, ck, GuardOptions{},
                                            RecoveryPolicy{},
                                            grow_back_tiers());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.grow_backs, 1);
  EXPECT_EQ(sv.num_ranks(), 4);
  expect_global_identical(clean, sv);
}

TEST(GrowBackDriver, NoReviveStaysShrunkAndCountsDegradedGates) {
  const Circuit c = elastic_circuit();
  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("growback_degraded");
  ck.dir = scratch.path();
  const IntegrityStats stats = run_verified(sv, c, ck, GuardOptions{},
                                            RecoveryPolicy{},
                                            grow_back_tiers());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.grow_backs, 0);
  EXPECT_EQ(stats.final_ranks, 2);
  EXPECT_LT(stats.final_ranks, stats.planned_ranks);
  // The failure fired at gate 12: gates 12..19 ran below plan.
  EXPECT_EQ(stats.degraded_gates, 8u);
}

TEST(GrowBackDriver, EmitsAPricedNetworkEventAtFullParticipation) {
  FaultInjector inj(parse_fault_plan("fail@12:1, revive@16"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  RecordingListener rec;
  sv.set_listener(&rec);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("growback_events");
  ck.dir = scratch.path();
  (void)run_verified(sv, elastic_circuit(), ck, GuardOptions{},
                     RecoveryPolicy{}, grow_back_tiers());

  std::vector<ExecEvent> grow;
  for (const ExecEvent& e : rec.events()) {
    if (e.kind == ExecEvent::Kind::kRecovery &&
        e.recovery_tier == RecoveryTier::kGrowBack) {
      grow.push_back(e);
    }
  }
  // The whole tier is labeled kGrowBack: the shrink leg's checkpoint read
  // and half-participation merge move, then the re-expand. The re-expand is
  // pure slice movement — a net-phase event with every rank participating
  // and no filesystem I/O (the data is resident in survivor memory).
  ASSERT_EQ(grow.size(), 3u);
  EXPECT_GT(grow[0].recovery_io_bytes, 0u);
  EXPECT_DOUBLE_EQ(grow[1].participating_fraction, 0.5);
  const ExecEvent& expand = grow[2];
  EXPECT_EQ(expand.recovery_io_bytes, 0u);
  EXPECT_GT(expand.recovery_bytes_per_rank, 0u);
  EXPECT_GT(expand.recovery_messages_per_rank, 0);
  EXPECT_DOUBLE_EQ(expand.participating_fraction, 1.0);
}

TEST(GrowBackDriver, GuardCadenceStraddlesTheGrowBackBoundary) {
  // Guards checking every 2 gates across shrink (gate 12) and grow-back
  // (gate 16): no false violations and the digest still matches.
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1, revive@16"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("growback_guards");
  ck.dir = scratch.path();
  GuardOptions guards;
  guards.cadence_gates = 2;
  const IntegrityStats stats = run_verified(sv, c, ck, guards,
                                            RecoveryPolicy{},
                                            grow_back_tiers());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.grow_backs, 1);
  EXPECT_EQ(stats.guard_violations, 0u);
  EXPECT_GT(stats.guard_checks, 0u);
  expect_global_identical(clean, sv);
}

TEST(GrowBackDriver, CheckpointAfterGrowBackKeepsRankSliceTiersArmed) {
  // Two failures with a revive between them: the second failure must find a
  // checkpoint written at the restored width (the driver grows back before
  // checkpointing at the same gate), so the reshard tiers stay feasible.
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1, revive@14, fail@17:2"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("growback_rearm");
  ck.dir = scratch.path();
  const IntegrityStats stats = run_verified(sv, c, ck, GuardOptions{},
                                            RecoveryPolicy{},
                                            grow_back_tiers());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.grow_backs, 1);
  EXPECT_EQ(stats.shrinks, 2);  // the second failure shrinks again
  EXPECT_EQ(stats.final_ranks, 2);
  expect_global_identical(clean, sv);
}

// --- pricing a re-shard's retried moves -------------------------------------

TEST(ReshardPricing, RetriedMovesArePricedInBothDirections) {
  // Every rank sends one message in each of gates 0 and 6, so rank 3's
  // third send is the shrink's one move and rank 0's third the first move
  // of the grow-back to 4 ranks.
  for (const char* faults :
       {"fail@12:1, drop@3:3", "fail@12:1, revive@16, drop@3"}) {
    SCOPED_TRACE(faults);
    FaultInjector inj(parse_fault_plan(faults));
    DistStateVector<SoaStorage> sv(6, 4);
    sv.set_fault_injector(&inj);
    const MachineModel m = archer2();
    JobConfig job;
    job.num_qubits = 6;
    job.nodes = 4;
    CostModel cost(m, job);
    sv.set_listener(&cost);
    CheckpointOptions ck;
    ck.interval_gates = 5;
    const test::ScratchDir scratch("reshard_pricing");
    ck.dir = scratch.path();
    const IntegrityStats stats = run_verified(
        sv, elastic_circuit(), ck, GuardOptions{}, RecoveryPolicy{},
        grow_back_tiers());
    EXPECT_EQ(stats.restarts, 0);
    EXPECT_EQ(stats.shrinks, 1);

    const RunReport r = cost.report();
    EXPECT_EQ(inj.totals().retries, 1u);
    EXPECT_EQ(r.retry_bytes, inj.totals().retry_bytes);
    EXPECT_EQ(r.retry_bytes, 16u * kBytesPerAmp);  // one 16-amp slice
    EXPECT_EQ(r.retry_messages, 1u);
    // The 0.1 s backoff before the re-send plus the 0.5 s watchdog wait.
    EXPECT_DOUBLE_EQ(r.fault_delay_s, 0.6);
  }
}

/// 20 gates on 6 qubits over 4 ranks whose only exchanges are gate 10's H
/// on qubit 4 and gate 15's H on qubit 5.
Circuit two_exchange_circuit() {
  Circuit c(6, "pending");
  for (int g = 0; g < 20; ++g) {
    if (g == 10) {
      c.add(make_h(4));
    } else if (g == 15) {
      c.add(make_h(5));
    } else {
      c.add(make_ry(g % 4, 0.3 + 0.07 * g));
    }
  }
  return c;
}

/// Retry bytes on the recorded exchange events and on the recovery events
/// of each tier.
struct RetryBytesByEvent {
  std::uint64_t exchange = 0;
  std::map<RecoveryTier, std::uint64_t> recovery;
};

RetryBytesByEvent retry_bytes_by_event(const RecordingListener& rec) {
  RetryBytesByEvent by;
  for (const ExecEvent& e : rec.events()) {
    if (e.kind == ExecEvent::Kind::kRecovery) {
      by.recovery[e.recovery_tier] += e.retry_bytes;
    } else if (e.kind == ExecEvent::Kind::kExchange) {
      by.exchange += e.retry_bytes;
    }
  }
  return by;
}

TEST(ReshardPricing, RestartPricesTheRetriesOfTheExchangeItRecovers) {
  // Gate 10's exchange loses all four attempts of its first round (rank
  // 0's first four sends), so the run restarts from the gate-10
  // checkpoint. Rank 1 then dies before the replayed gate 10 and the run
  // shrinks. The three retries, 1,536 B, belong to the restart's event:
  // not to the shrink's, and not to gate 15's exchange.
  const Circuit c = two_exchange_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(
      parse_fault_plan("drop@1, drop@2, drop@3, drop@4, fail@11:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  RecordingListener rec;
  sv.set_listener(&rec);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("reshard_restart");
  ck.dir = scratch.path();
  const IntegrityStats stats = run_verified(
      sv, c, ck, GuardOptions{}, RecoveryPolicy{}, grow_back_tiers());
  EXPECT_EQ(stats.restarts, 1);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(inj.totals().retries, 3u);
  EXPECT_EQ(inj.totals().retry_bytes, 1536u);
  expect_global_identical(clean, sv);

  const RetryBytesByEvent by = retry_bytes_by_event(rec);
  ASSERT_EQ(by.recovery.size(), 2u);
  EXPECT_EQ(by.recovery.at(RecoveryTier::kRestart), 1536u);
  EXPECT_EQ(by.recovery.at(RecoveryTier::kShrink), 0u);
  EXPECT_EQ(by.exchange, 0u);
}

TEST(ReshardPricing, ChargesPendingFromBeforeStayWithTheNextGate) {
  // Rank 1 dies at gate 3 and the run shrinks to 2 ranks. A first
  // replacement arrives after gate 4, but the grow-back's first move (rank
  // 0's first four sends) is lost four times, so the run stays at 2 ranks
  // with that move's three retries pending. A second replacement arrives
  // after gate 7 and its grow-back runs with them pending: they are set
  // aside, stay off its event, and land on the next exchange, gate 10's.
  const Circuit c = two_exchange_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan(
      "fail@3:1, revive@6, revive@9, drop@1, drop@2, drop@3, drop@4"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  RecordingListener rec;
  sv.set_listener(&rec);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  const test::ScratchDir scratch("reshard_pending");
  ck.dir = scratch.path();
  const IntegrityStats stats = run_verified(
      sv, c, ck, GuardOptions{}, RecoveryPolicy{}, grow_back_tiers());
  EXPECT_EQ(stats.restarts, 0);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.grow_backs, 1);
  EXPECT_EQ(stats.final_ranks, 4);
  EXPECT_EQ(inj.totals().retries, 3u);
  EXPECT_EQ(inj.totals().retry_bytes, 3u * 16u * kBytesPerAmp);
  expect_global_identical(clean, sv);

  const RetryBytesByEvent by = retry_bytes_by_event(rec);
  for (const auto& [tier, bytes] : by.recovery) {
    EXPECT_EQ(bytes, 0u) << recovery_tier_name(tier);
  }
  EXPECT_EQ(by.exchange, inj.totals().retry_bytes);
}

// --- snapshot width tagging (satellite) ------------------------------------

TEST(SnapshotWidth, TagsRefuseAMismatchedRankSliceAdoption) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> sv(6, 4);
  sv.apply(c);
  (void)sv.reshard(2, 1);

  // Checkpoint written at the shrunk 2-rank width...
  const test::ScratchDir scratch("width_tag");
  const std::string path = scratch.file("width_tag.qsv");
  save_state(path, sv);
  EXPECT_EQ(snapshot_ranks(path), 2);

  // ...then the run grows back to 4 ranks: a rank-slice adoption of the
  // stale checkpoint would misread spans, so it must be refused; the full
  // restore (global amplitude order) stays width-agnostic.
  (void)sv.reshard(4);
  EXPECT_THROW(load_rank_slice(path, sv, rank_t{1}), Error);

  DistStateVector<SoaStorage> restored(6, 4);
  load_state(path, restored);
  expect_global_identical(sv, restored);
}

// --- machine-derived tier energies -----------------------------------------

TEST(TierEnergies, MachineModelOrdersTheTiersStrictly) {
  const MachineModel m = archer2();
  JobConfig job;
  job.num_qubits = 44;
  job.nodes = 4096;
  RunReport fault_free;
  fault_free.runtime_s = 100.0;
  fault_free.node_energy_j = 4096.0 * 500.0 * 100.0;  // ~500 W/node solve

  const TierEnergies e = tier_energies_from_machine(m, job, fault_free, 5.0);
  EXPECT_EQ(e.replay_s, 5.0);
  EXPECT_GT(e.substitute_j, 0.0);
  // The static cheapest-first order is real physics on this machine:
  // substitute < shrink < grow-back < restart, strictly.
  EXPECT_LT(e.substitute_j, e.shrink_j);
  EXPECT_LT(e.shrink_j, e.grow_back_j);
  EXPECT_LT(e.grow_back_j, e.restart_j);
}

TEST(TierEnergies, GrowBackAddsExactlyOneMoreSliceMove) {
  const MachineModel m = archer2();
  JobConfig job;
  job.num_qubits = 40;
  job.nodes = 512;
  RunReport fault_free;
  fault_free.runtime_s = 50.0;
  fault_free.node_energy_j = 512.0 * 500.0 * 50.0;

  const RecoveryEnergy sub = expected_substitute(m, job, fault_free, 2.0);
  const RecoveryEnergy shr = expected_shrink(m, job, fault_free, 2.0);
  const RecoveryEnergy grow = expected_grow_back(m, job, fault_free, 2.0);
  // shrink = substitute + one slice move; grow-back = shrink + one more of
  // the same move, so the two deltas are equal.
  EXPECT_NEAR(grow.energy_j - shr.energy_j, shr.energy_j - sub.energy_j,
              1e-6 * shr.energy_j);
  EXPECT_NEAR(grow.time_s - shr.time_s, shr.time_s - sub.time_s, 1e-12);
}

TEST(TierEnergies, DegradedTailChargesTheSwitchDraw) {
  const MachineModel m = archer2();
  JobConfig job;
  job.num_qubits = 40;
  job.nodes = 512;
  const double extra = degraded_tail_extra_j(m, job, 30.0);
  EXPECT_DOUBLE_EQ(extra,
                   30.0 * m.switch_count(512) * m.switches.power_w);
  EXPECT_THROW((void)degraded_tail_extra_j(m, job, -1.0), Error);
}

}  // namespace
}  // namespace qsv
