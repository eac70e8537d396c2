// Elastic recovery (PR 5): spare-node substitution and shrink-to-survive
// re-sharding, chosen by choose_tier and driven by run_verified. The
// standing contract under test: every recovered run's final amplitudes are
// bit-identical to the fault-free run's, whatever tier fired.
#include "dist/recovery_policy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "cluster/faults.hpp"
#include "common/error.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/events.hpp"
#include "perf/runner.hpp"
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
  const std::optional<RecoveryTier> d =
      choose_tier(all_tiers(), clean_context());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kSubstitute);
}

TEST(ChooseTier, ExpectedEnergyOverridesTheStaticOrder) {
  ElasticOptions opts = all_tiers();
  opts.substitute_energy_j = 9.0;
  opts.shrink_energy_j = 5.0;
  opts.restart_energy_j = 7.0;
  const std::optional<RecoveryTier> d = choose_tier(opts, clean_context());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kShrink);
}

TEST(ChooseTier, PartialPricingFallsBackToStaticOrder) {
  // One feasible tier unpriced: comparing a priced tier against an unknown
  // one would be a guess, so the static order decides.
  ElasticOptions opts = all_tiers();
  opts.substitute_energy_j = 9.0;
  opts.shrink_energy_j = 5.0;  // restart stays -1 (unknown)
  const std::optional<RecoveryTier> d = choose_tier(opts, clean_context());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kSubstitute);
}

TEST(ChooseTier, NoSpareFallsToShrink) {
  TierContext ctx = clean_context();
  ctx.spares_left = 0;
  const std::optional<RecoveryTier> d = choose_tier(all_tiers(), ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kShrink);
}

TEST(ChooseTier, DirtyBoundaryLeavesOnlyRestart) {
  // Mid-exchange failure: surviving slices are not consistent pre-gate
  // state, so only the full restart can recover.
  TierContext ctx = clean_context();
  ctx.clean_boundary = false;
  ctx.window_replayable = false;
  const std::optional<RecoveryTier> d = choose_tier(all_tiers(), ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kRestart);
}

TEST(ChooseTier, DistributedWindowLeavesOnlyRestart) {
  TierContext ctx = clean_context();
  ctx.window_replayable = false;
  const std::optional<RecoveryTier> d = choose_tier(all_tiers(), ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, RecoveryTier::kRestart);
}

TEST(ChooseTier, NoCheckpointMeansNothingIsFeasible) {
  TierContext ctx = clean_context();
  ctx.checkpoint_exists = false;
  const std::optional<RecoveryTier> d = choose_tier(all_tiers(), ctx);
  EXPECT_FALSE(d.has_value());
}

TEST(ChooseTier, DisabledTiersAreInfeasible) {
  ElasticOptions opts = all_tiers();
  opts.allow_substitute = false;
  opts.allow_shrink = false;
  opts.allow_restart = false;
  const std::optional<RecoveryTier> d = choose_tier(opts, clean_context());
  EXPECT_FALSE(d.has_value());
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
  // Guards + shrink: norm checks keep passing on the merged slices.
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

// --- one checkpoint file per run, every read verified ----------------------

/// Watches a run's checkpoint directory from its event stream: at every
/// event the directory may hold `checkpoint.qsv` and nothing else. An
/// optional action runs at one gate event (1-based), the point where a
/// test corrupts the checkpoint or stops the run.
class CheckpointDirWatch final : public ExecListener {
 public:
  explicit CheckpointDirWatch(std::string dir) : dir_(std::move(dir)) {}

  void at_gate_event(std::size_t n, std::function<void()> action) {
    action_at_ = n;
    action_ = std::move(action);
  }

  void on_event(const ExecEvent& e) override {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name != "checkpoint.qsv") {
        strays_.insert(name);
      }
    }
    if (e.kind == ExecEvent::Kind::kLocalGate ||
        e.kind == ExecEvent::Kind::kExchange) {
      if (++gate_events_ == action_at_) {
        action_();
      }
    }
  }

  /// Every other name seen in the directory at any event.
  [[nodiscard]] const std::set<std::string>& strays() const {
    return strays_;
  }

 private:
  std::string dir_;
  std::size_t gate_events_ = 0;
  std::size_t action_at_ = 0;
  std::function<void()> action_;
  std::set<std::string> strays_;
};

[[nodiscard]] bool dir_is_empty(const std::string& dir) {
  return std::filesystem::directory_iterator(dir) ==
         std::filesystem::directory_iterator();
}

TEST(CheckpointFile, OneFileAtEveryEventAndNoneAfterTheRun) {
  // Every path of run_verified, a directory holding an earlier process's
  // checkpoint.qsv and checkpoint.qsv.tmp, and a write that fails after a
  // commit (the restart then reads the commit before it): at every event
  // the directory holds at most the run's checkpoint.qsv, and nothing once
  // run_verified returns or throws.
  struct Case {
    std::string name;
    std::string faults;
    ElasticOptions elastic;
    std::vector<RecoveryTier> tiers;
    int rollbacks = 0;
    std::uint64_t guard_cadence = 0;
    std::size_t stop_at = 0;  // cancel the run at this gate event
    bool stale_files = false;
    bool completes = true;
    // At this gate event an empty directory takes the temp file's name, so
    // the checkpoint write that follows fails.
    std::size_t block_write_at = 0;
  };
  ElasticOptions shrink;
  shrink.allow_shrink = true;
  ElasticOptions grow = shrink;
  grow.allow_grow_back = true;
  ElasticOptions none;
  none.allow_substitute = false;
  none.allow_restart = false;
  const std::vector<Case> cases = {
      {"clean", "", {}, {}},
      {"substitute", "fail@12:1", all_tiers(), {RecoveryTier::kSubstitute}},
      {"shrink", "fail@12:1", shrink, {RecoveryTier::kShrink}},
      {"grow-back", "fail@12:1, revive@16", grow,
       {RecoveryTier::kGrowBack, RecoveryTier::kGrowBack}},
      {"restart", "fail@12:1", {}, {RecoveryTier::kRestart}},
      {"rollback", "bitflip@13:1:62", {}, {}, 1, 1},
      {"deadline", "", {}, {}, 0, 0, 14, false, false},
      {"abort", "fail@12:1", none, {}, 0, 0, 0, false, false},
      {"stale files", "fail@12:1", {}, {RecoveryTier::kRestart}, 0, 0, 0,
       true},
      {"failed write", "fail@17:1", {}, {RecoveryTier::kRestart}, 0, 0, 0,
       false, true, 15},
  };

  const Circuit c = elastic_circuit();
  DistStateVectorSoa clean(6, 4);
  clean.apply(c);
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    const test::ScratchDir scratch("checkpoint_file");
    if (k.stale_files) {
      std::ofstream(scratch.file("checkpoint.qsv")) << "an earlier run";
      std::ofstream(scratch.file("checkpoint.qsv.tmp")) << "half-written";
    }
    FaultInjector inj(parse_fault_plan(k.faults));
    DistStateVectorSoa sv(6, 4);
    sv.set_fault_injector(&inj);
    CheckpointDirWatch watch(scratch.path());
    sv.set_listener(&watch);
    std::atomic<bool> cancel{false};
    StopToken stop;
    stop.set_cancel_flag(&cancel);
    if (k.stop_at > 0) {
      watch.at_gate_event(k.stop_at, [&] { cancel = true; });
    }
    if (k.block_write_at > 0) {
      watch.at_gate_event(k.block_write_at, [&] {
        std::filesystem::create_directory(scratch.file("checkpoint.qsv.tmp"));
      });
    }
    CheckpointOptions ck;
    ck.interval_gates = 5;
    ck.dir = scratch.path();
    GuardOptions guards;
    guards.cadence_gates = k.guard_cadence;
    try {
      const IntegrityStats stats = run_verified(
          sv, c, ck, guards, RecoveryPolicy{}, k.elastic, &stop);
      EXPECT_TRUE(k.completes);
      EXPECT_EQ(stats.tiers_used, k.tiers);
      EXPECT_EQ(stats.rollbacks, k.rollbacks);
      EXPECT_EQ(stats.checkpoint_write_failures, k.block_write_at > 0 ? 1 : 0);
      EXPECT_EQ(state_digest(sv), state_digest(clean));
    } catch (const Error& e) {
      EXPECT_FALSE(k.completes) << e.what();
    }
    EXPECT_TRUE(watch.strays().empty())
        << "first stray: " << *watch.strays().begin();
    EXPECT_TRUE(dir_is_empty(scratch.path()));
  }
}

TEST(CheckpointFile, ACorruptSliceAbortsEveryTierThatReadsIt) {
  // The gate-10 checkpoint is committed between the events of gates 9 and
  // 10. At gate 10's event the lowest mantissa bit of the 16 re doubles in
  // rank 1's span is flipped, and the failure at gate 12 reads the file
  // back: substitute and shrink rebuild rank 1 from its slice, which fails
  // its CRC, and restart fails the payload CRC. The guards never look at
  // checkpoint bytes, so they change nothing: with them on, the payload
  // CRC still aborts the full restore. Each run aborts, naming the rank and
  // the checkpoint's gate, and leaves the directory empty.
  struct Case {
    std::string name;
    ElasticOptions elastic;
    rank_t rank;
    bool guards = false;
  };
  ElasticOptions shrink;
  shrink.allow_shrink = true;
  const std::vector<Case> cases = {
      {"substitute", all_tiers(), 1},
      {"shrink", shrink, 1},
      {"restart", {}, -1},
      {"substitute with guards", all_tiers(), 1, true},
      {"shrink with guards", shrink, 1, true},
      {"restart with guards", {}, -1, true},
  };
  const Circuit c = elastic_circuit();
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    const test::ScratchDir scratch("corrupt_checkpoint");
    const std::string path = scratch.file("checkpoint.qsv");
    FaultInjector inj(parse_fault_plan("fail@12:1"));
    DistStateVectorSoa sv(6, 4);
    sv.set_fault_injector(&inj);
    CheckpointDirWatch watch(scratch.path());
    sv.set_listener(&watch);
    watch.at_gate_event(11, [&] {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      std::uint32_t ranks = 0;
      f.seekg(20);
      f.read(reinterpret_cast<char*>(&ranks), sizeof ranks);
      ASSERT_EQ(ranks, 4u);
      const std::streamoff rank1 = 24 + 4 * 4 + 16 * kBytesPerAmp;
      for (std::streamoff a = 0; a < 16; ++a) {
        char b = 0;
        f.seekg(rank1 + a * kBytesPerAmp);
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x01);
        f.seekp(rank1 + a * kBytesPerAmp);
        f.write(&b, 1);
      }
      ASSERT_TRUE(f.good());
    });
    CheckpointOptions ck;
    ck.interval_gates = 5;
    ck.dir = scratch.path();
    GuardOptions guards;
    if (k.guards) {
      guards.cadence_gates = 2;
    }
    try {
      (void)run_verified(sv, c, ck, guards, RecoveryPolicy{}, k.elastic);
      ADD_FAILURE() << "completed with digest " << state_digest(sv);
    } catch (const IntegrityAbort& e) {
      EXPECT_EQ(e.rank(), k.rank) << e.what();
      EXPECT_EQ(e.gate(), 10u) << e.what();
      EXPECT_NE(std::string(e.what()).find("checkpoint of gate 10"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(dir_is_empty(scratch.path()));
  }
}

}  // namespace
}  // namespace qsv
