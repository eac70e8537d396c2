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

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "cluster/cluster.hpp"
#include "cluster/faults.hpp"
#include "cluster/health.hpp"
#include "common/error.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/events.hpp"
#include "dist/plan.hpp"
#include "dist/snapshot.hpp"
#include "machine/archer2.hpp"
#include "perf/resilience_model.hpp"

namespace qsv {
namespace {

std::string tmp_dir(const char* name) {
  return testing::TempDir() + "/" + name;
}

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

TEST(PlanGrowBack, DoublesTheWidthAndHalvesTheSlices) {
  const GrowBackPlan p = plan_grow_back(6, 4, 1 << 20);
  EXPECT_EQ(p.old_ranks, 4);
  EXPECT_EQ(p.new_ranks, 8);
  EXPECT_EQ(p.slice_amps, amp_index{8});  // 2^(4-1)
  EXPECT_EQ(p.moving_pairs, 4);           // every survivor ships its top half
  EXPECT_EQ(p.bytes_per_move, 8u * kBytesPerAmp);
  EXPECT_EQ(p.messages_per_move, 1);
  EXPECT_EQ(p.total_bytes, 4u * 8u * kBytesPerAmp);
}

TEST(PlanGrowBack, ChunksMovesByMessageCap) {
  // 8-amp slices moved under a 2-amp message cap: 4 messages per pair.
  const GrowBackPlan p =
      plan_grow_back(6, 4, 2 * static_cast<std::size_t>(kBytesPerAmp));
  EXPECT_EQ(p.messages_per_move, 4);
}

TEST(PlanGrowBack, SingleRankGrowsToTwo) {
  const GrowBackPlan p = plan_grow_back(6, 6, 1 << 20);
  EXPECT_EQ(p.old_ranks, 1);
  EXPECT_EQ(p.new_ranks, 2);
}

TEST(PlanGrowBack, RefusesSubTwoAmplitudeSlices) {
  // local_qubits == 1: splitting again would leave sub-two-amp slices.
  EXPECT_THROW((void)plan_grow_back(6, 1, 1 << 20), Error);
}

// --- cluster ---------------------------------------------------------------

TEST(ClusterGrowTo, RestoresWidthAfterShrink) {
  VirtualCluster cl(4, 1 << 20);
  cl.shrink_to(2);
  EXPECT_EQ(cl.num_ranks(), 2);
  cl.grow_to(4);
  EXPECT_EQ(cl.num_ranks(), 4);
}

TEST(ClusterGrowTo, RejectsNonGrowthAndNonPowerOfTwo) {
  VirtualCluster cl(4, 1 << 20);
  EXPECT_THROW(cl.grow_to(4), Error);  // not a growth
  EXPECT_THROW(cl.grow_to(2), Error);
  EXPECT_THROW(cl.grow_to(6), Error);  // not a power of two
}

// --- engine ----------------------------------------------------------------

TEST(GrowBack, InverseOfShrinkIsBitIdenticalSerial) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  DistStateVector<SoaStorage> sv(6, 4);
  sv.apply(c);
  (void)sv.shrink_to_half(1);
  EXPECT_EQ(sv.num_ranks(), 2);
  const GrowBackPlan p = sv.grow_back_double();
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
  (void)sv.shrink_to_half(1);
  (void)sv.grow_back_double();
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
  (void)sv.shrink_to_half(1);
  (void)sv.shrink_to_half(0);
  EXPECT_EQ(sv.num_ranks(), 1);
  (void)sv.grow_back_double();
  EXPECT_EQ(sv.num_ranks(), 2);
  (void)sv.grow_back_double();
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
  EXPECT_THROW((void)sv.grow_back_double(), Error);
}

TEST(GrowBack, CorruptedHandoffIsCaughtByCrcAndRetried) {
  // A bitflip in a handoff payload: the per-message CRC catches it and the
  // engine's with_retry re-sends, so the grown state is still exact.
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  DistStateVector<SoaStorage> sv(6, 4);
  sv.apply(c);
  (void)sv.shrink_to_half(1);
  // Every message from here on is a grow-back handoff; corrupt rank 0's
  // next send (the first chunk it ships to revived rank 1).
  FaultInjector inj(parse_fault_plan("corrupt@1:0"));
  sv.set_fault_injector(&inj);
  (void)sv.grow_back_double();
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
  const TierDecision d = choose_tier(grow_back_tiers(), grow_back_context());
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kGrowBack);
}

TEST(ChooseTier, NoExpectedReplacementFallsBackToPlainShrink) {
  TierContext ctx = grow_back_context();
  ctx.replacement_expected = false;
  const TierDecision d = choose_tier(grow_back_tiers(), ctx);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kShrink);
  EXPECT_NE(d.reason.find("no replacement arrival expected"),
            std::string::npos);
}

TEST(ChooseTier, GeometryMismatchLeavesOnlyRestart) {
  // A checkpoint written before a re-shard: rank-slice tiers (substitute,
  // shrink, grow-back) cannot adopt it; the width-agnostic restart can.
  ElasticOptions opts = grow_back_tiers();
  opts.spares = 1;
  TierContext ctx = grow_back_context();
  ctx.spares_left = 1;
  ctx.checkpoint_geometry_matches = false;
  const TierDecision d = choose_tier(opts, ctx);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kRestart);
  EXPECT_NE(d.reason.find("geometry mismatch"), std::string::npos);
}

TEST(ChooseTier, MachineEnergiesRankGrowBackBetweenShrinkAndRestart) {
  ElasticOptions opts = grow_back_tiers();
  opts.allow_substitute = false;
  opts.shrink_energy_j = 5.0;
  opts.grow_back_energy_j = 7.0;
  opts.restart_energy_j = 50.0;
  // Shrink is rejected (superseded), so grow-back wins over restart on
  // energy even though it is dearer than the shrink it replaces.
  const TierDecision d = choose_tier(opts, grow_back_context());
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.tier, RecoveryTier::kGrowBack);
  EXPECT_NE(d.reason.find("cheapest by expected energy"), std::string::npos);
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
  ck.dir = tmp_dir("growback_revive");
  RecoveryPolicy policy;
  policy.health.enabled = true;
  const IntegrityStats stats =
      run_verified(sv, c, ck, GuardOptions{}, policy, grow_back_tiers());

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.shrinks, 1);
  EXPECT_EQ(stats.grow_backs, 1);
  EXPECT_EQ(stats.revivals, 1u);
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
  ck.dir = tmp_dir("growback_threaded");
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
  ck.dir = tmp_dir("growback_degraded");
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
  ck.dir = tmp_dir("growback_events");
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
  // (gate 16): signatures are invalidated at each re-shard and recaptured,
  // so no false violations and the digest still matches.
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1, revive@16"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  CheckpointOptions ck;
  ck.interval_gates = 5;
  ck.dir = tmp_dir("growback_guards");
  GuardOptions guards;
  guards.cadence_gates = 2;
  guards.slice_crc = true;
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
  ck.dir = tmp_dir("growback_rearm");
  const IntegrityStats stats = run_verified(sv, c, ck, GuardOptions{},
                                            RecoveryPolicy{},
                                            grow_back_tiers());
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.grow_backs, 1);
  EXPECT_EQ(stats.shrinks, 2);  // the second failure shrinks again
  EXPECT_EQ(stats.final_ranks, 2);
  expect_global_identical(clean, sv);
}

// --- snapshot width tagging (satellite) ------------------------------------

TEST(SnapshotWidth, TagsRefuseAMismatchedRankSliceAdoption) {
  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> sv(6, 4);
  sv.apply(c);
  (void)sv.shrink_to_half(1);

  // Checkpoint written at the shrunk 2-rank width...
  const std::string path = tmp_dir("width_tag.qsv");
  save_state(path, sv);
  EXPECT_EQ(snapshot_ranks(path), 2);

  // ...then the run grows back to 4 ranks: a rank-slice adoption of the
  // stale checkpoint would misread spans, so it must be refused; the full
  // restore (global amplitude order) stays width-agnostic.
  (void)sv.grow_back_double();
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
