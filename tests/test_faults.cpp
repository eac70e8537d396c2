#include "cluster/faults.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "circuit/builders.hpp"
#include "circuit/gate.hpp"
#include "common/error.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/events.hpp"

namespace qsv {
namespace {

/// Hadamards on the top qubit: every gate is distributed, so each one
/// exercises a full slice exchange on every rank pair.
Circuit distributed_bench(int qubits, int gates) {
  Circuit c(qubits, "dist_bench");
  for (int i = 0; i < gates; ++i) {
    c.add(make_h(qubits - 1));
  }
  return c;
}

TEST(FaultPlan, ParsesEveryKind) {
  const FaultPlan p =
      parse_fault_plan("fail@120:2, drop@5, corrupt@9:1, delay@3:0.25");
  ASSERT_EQ(p.specs.size(), 4u);

  EXPECT_EQ(p.specs[0].kind, FaultKind::kNodeFailure);
  EXPECT_EQ(p.specs[0].at_gate, 120u);
  EXPECT_EQ(p.specs[0].rank, 2);

  EXPECT_EQ(p.specs[1].kind, FaultKind::kDropMessage);
  EXPECT_EQ(p.specs[1].at_message, 5u);
  EXPECT_EQ(p.specs[1].rank, 0);  // no sender named: rank 0

  EXPECT_EQ(p.specs[2].kind, FaultKind::kCorruptMessage);
  EXPECT_EQ(p.specs[2].at_message, 9u);
  EXPECT_EQ(p.specs[2].rank, 1);

  EXPECT_EQ(p.specs[3].kind, FaultKind::kStraggler);
  EXPECT_EQ(p.specs[3].at_message, 3u);
  EXPECT_EQ(p.specs[3].rank, 0);
  EXPECT_DOUBLE_EQ(p.specs[3].delay_s, 0.25);

  EXPECT_TRUE(parse_fault_plan("").empty());
  EXPECT_TRUE(parse_fault_plan("  ,  ").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_plan("fail"), Error);
  EXPECT_THROW(parse_fault_plan("@3"), Error);
  EXPECT_THROW(parse_fault_plan("explode@3"), Error);
  EXPECT_THROW(parse_fault_plan("drop@zero"), Error);
  EXPECT_THROW(parse_fault_plan("drop@0"), Error);      // 1-based ordinals
  EXPECT_THROW(parse_fault_plan("delay@3"), Error);     // needs seconds
  EXPECT_THROW(parse_fault_plan("delay@3:junk"), Error);
}

TEST(FaultPlan, ParsesBitflipSpecs) {
  const FaultPlan p =
      parse_fault_plan("bitflip@7, bitflip@9:2, bitflip@11:3:62");
  ASSERT_EQ(p.specs.size(), 3u);

  EXPECT_EQ(p.specs[0].kind, FaultKind::kBitFlip);
  EXPECT_EQ(p.specs[0].at_gate, 7u);
  EXPECT_EQ(p.specs[0].rank, 0);  // defaults to rank 0
  EXPECT_EQ(p.specs[0].bit, -1);  // random bit

  EXPECT_EQ(p.specs[1].rank, 2);
  EXPECT_EQ(p.specs[1].bit, -1);

  EXPECT_EQ(p.specs[2].rank, 3);
  EXPECT_EQ(p.specs[2].bit, 62);
}

TEST(FaultPlan, RejectsMalformedBitflipSpecs) {
  EXPECT_THROW(parse_fault_plan("bitflip"), Error);
  EXPECT_THROW(parse_fault_plan("bitflip@1:"), Error);     // trailing ':'
  EXPECT_THROW(parse_fault_plan("bitflip@1:0:128"), Error);  // bit range
  EXPECT_THROW(parse_fault_plan("bitflip@1:0:-1"), Error);
}

TEST(FaultPlan, SampledFailuresAreDeterministic) {
  const double mtbf = 500;  // short against the horizon: failures expected
  const FaultPlan a = sample_node_failures(mtbf, 1.0, 10000, 16, 42);
  const FaultPlan b = sample_node_failures(mtbf, 1.0, 10000, 16, 42);
  EXPECT_EQ(a.specs, b.specs);
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.specs.size(); ++i) {
    EXPECT_EQ(a.specs[i].kind, FaultKind::kNodeFailure);
    EXPECT_LT(a.specs[i].at_gate, 10000u);
    if (i > 0) {  // sorted chronologically
      EXPECT_GE(a.specs[i].at_gate, a.specs[i - 1].at_gate);
    }
  }
  // A different seed draws a different schedule.
  const FaultPlan c = sample_node_failures(mtbf, 1.0, 10000, 16, 43);
  EXPECT_NE(a.specs, c.specs);
}

TEST(Faults, DroppedMessageIsRetriedTransparently) {
  const Circuit c = distributed_bench(6, 4);

  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("drop@1"));
  DistStateVector<SoaStorage> faulty(6, 4);
  faulty.set_fault_injector(&inj);
  faulty.apply(c);

  EXPECT_EQ(inj.totals().dropped, 1u);
  EXPECT_GE(inj.totals().retries, 1u);
  EXPECT_GT(inj.totals().retry_bytes, 0u);
  // The dropped message and its re-send are both real wire traffic.
  EXPECT_GT(faulty.comm_stats().messages, clean.comm_stats().messages);

  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(clean.amplitude(i), faulty.amplitude(i));
  }
}

TEST(Faults, CorruptedMessageIsDetectedAndRetried) {
  const Circuit c = distributed_bench(6, 4);

  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("corrupt@2"));
  DistStateVector<SoaStorage> faulty(6, 4);
  faulty.set_fault_injector(&inj);
  faulty.apply(c);

  EXPECT_EQ(inj.totals().corrupted, 1u);
  EXPECT_GE(inj.totals().retries, 1u);
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(clean.amplitude(i), faulty.amplitude(i));
  }
}

TEST(Faults, StragglerDelayIsChargedToTheGateEvent) {
  FaultInjector inj(parse_fault_plan("delay@1:0.5"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  RecordingListener rec;
  sv.set_listener(&rec);
  sv.apply(distributed_bench(6, 2));

  EXPECT_EQ(inj.totals().straggled, 1u);
  EXPECT_DOUBLE_EQ(inj.totals().delay_s, 0.5);
  double charged = 0;
  for (const ExecEvent& e : rec.events()) {
    charged += e.fault_delay_s;
  }
  EXPECT_DOUBLE_EQ(charged, 0.5);
}

TEST(Faults, DelaySumsDoNotDependOnHowRanksInterleave) {
  // Rank threads record their charges as they arrive; only each rank's own
  // charges keep their program order. Rank 0 charges 0.05 s then 0.1 s and
  // rank 2 charges 0.2 s, in three interleavings. Added in arrival order
  // the first gives 0.35000000000000003 and the second 0.34999999999999998;
  // added per rank in ascending rank order all three give one double.
  struct Charge {
    rank_t rank;
    double backoff_s;
  };
  const std::vector<std::vector<Charge>> interleavings = {
      {{0, 0.05}, {0, 0.1}, {2, 0.2}},
      {{0, 0.05}, {2, 0.2}, {0, 0.1}},
      {{2, 0.2}, {0, 0.05}, {0, 0.1}},
  };
  const double per_rank = (0.05 + 0.1) + 0.2;
  for (const std::vector<Charge>& order : interleavings) {
    FaultInjector inj(FaultPlan{});
    for (const Charge& charge : order) {
      inj.record_retry(charge.rank, 64, 2, charge.backoff_s);
    }
    const FaultInjector::GateFaultCharges gate = inj.take_gate_charges();
    EXPECT_EQ(gate.delay_s, per_rank);
    EXPECT_EQ(gate.retry_bytes, 3u * 64u);
    EXPECT_EQ(gate.retry_messages, 6);
    EXPECT_EQ(inj.totals().delay_s, per_rank);
    EXPECT_EQ(inj.take_gate_charges().delay_s, 0.0);
  }
}

TEST(Faults, PastDeadlineStragglerTimesOutAndIsRetried) {
  // Fault interplay: a straggler slower than the receive watchdog is not a
  // wait, it is a timeout — the message never arrives, the retry layer
  // re-sends, and the *deadline* (not the injected delay) is what gets
  // charged. Billing the 5 s delay too would double-count the wall time.
  const Circuit c = distributed_bench(6, 2);
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("delay@1:5.0"));
  DistStateVector<SoaStorage> faulty(6, 4);  // default 0.5 s deadline
  faulty.set_fault_injector(&inj);
  RecordingListener rec;
  faulty.set_listener(&rec);
  faulty.apply(c);

  EXPECT_EQ(inj.totals().straggled, 1u);
  EXPECT_GE(inj.totals().retries, 1u);
  // Charged: one retry backoff (0.1 s) plus the elapsed watchdog deadline
  // (0.5 s). The injected 5 s never appears anywhere.
  EXPECT_DOUBLE_EQ(inj.totals().delay_s, 0.6);
  double charged = 0;
  for (const ExecEvent& e : rec.events()) {
    charged += e.fault_delay_s;
  }
  EXPECT_DOUBLE_EQ(charged, 0.6);

  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(clean.amplitude(i), faulty.amplitude(i));
  }
}

TEST(Faults, DropAndCorruptOnTheSameMessageResolveToTheDrop) {
  // Fault interplay: two latches on one ordinal both fire, but a message
  // cannot be both lost and delivered-corrupted. Severity resolves the
  // verdict (drop > corrupt > straggle); the totals and the log record the
  // winning verdict only, so accounting stays one-event-per-message.
  const Circuit c = distributed_bench(6, 2);
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("drop@2, corrupt@2"));
  DistStateVector<SoaStorage> faulty(6, 4);
  faulty.set_fault_injector(&inj);
  faulty.apply(c);

  EXPECT_EQ(inj.totals().dropped, 1u);
  EXPECT_EQ(inj.totals().corrupted, 0u);
  ASSERT_EQ(inj.log().size(), 1u);
  EXPECT_EQ(inj.log()[0].kind, FaultKind::kDropMessage);
  EXPECT_GE(inj.totals().retries, 1u);

  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(clean.amplitude(i), faulty.amplitude(i));
  }
}

TEST(Faults, MessageSpecsCountTheSendersOwnMessages) {
  // drop@2:1 is rank 1's second send and corrupt@1 rank 0's first, however
  // the two senders' messages interleave.
  FaultInjector inj(parse_fault_plan("drop@2:1, corrupt@1"));
  using V = FaultInjector::Verdict;
  EXPECT_EQ(inj.on_message(1, 0).verdict, V::kDeliver);
  EXPECT_EQ(inj.on_message(1, 0).verdict, V::kDrop);
  EXPECT_EQ(inj.on_message(0, 1).verdict, V::kCorrupt);
  EXPECT_EQ(inj.on_message(0, 1).verdict, V::kDeliver);
  ASSERT_EQ(inj.log().size(), 2u);
  EXPECT_EQ(inj.log()[0].rank, 1);
  EXPECT_EQ(inj.log()[0].message, 2u);
  EXPECT_EQ(inj.log()[1].rank, 0);
  EXPECT_EQ(inj.log()[1].message, 1u);
}

TEST(Faults, ExhaustedRetriesEscalateToNodeFailure) {
  // Rank 0's first send and its three re-sends are all lost.
  FaultInjector inj(parse_fault_plan("drop@1, drop@2, drop@3, drop@4"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  EXPECT_THROW(sv.apply(distributed_bench(6, 1)), NodeFailure);
  EXPECT_EQ(inj.totals().retries, static_cast<std::uint64_t>(kMaxRetries));
}

TEST(Faults, PlannedNodeFailureCarriesRankAndGate) {
  FaultInjector inj(parse_fault_plan("fail@3:2"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  try {
    sv.apply(distributed_bench(6, 8));
    FAIL() << "expected NodeFailure";
  } catch (const NodeFailure& e) {
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.gate_index(), 3u);
  }
  EXPECT_EQ(inj.totals().node_failures, 1u);
  EXPECT_TRUE(inj.rank_dead(2));
}

TEST(Faults, RestartRevivesDeadRanksButNotFiredSpecs) {
  FaultInjector inj(parse_fault_plan("fail@0:1"));
  EXPECT_EQ(inj.on_gate(0), std::optional<rank_t>{1});
  EXPECT_TRUE(inj.rank_dead(1));

  inj.restart();
  EXPECT_FALSE(inj.rank_dead(1));
  // The spec is a one-shot latch: replaying gate 0 does not re-kill.
  EXPECT_EQ(inj.on_gate(0), std::nullopt);
}

TEST(Faults, BitflipDrawsAreDeterministicAndOneShot) {
  FaultPlan plan = parse_fault_plan("bitflip@4:2, bitflip@4:3:17");
  plan.seed = 9;
  FaultInjector a(plan);
  FaultInjector b(plan);

  const auto fa = a.bitflips_at_gate(4);
  const auto fb = b.bitflips_at_gate(4);
  ASSERT_EQ(fa.size(), 2u);
  ASSERT_EQ(fb.size(), 2u);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    // Same plan, same seed: identical rank, amplitude draw and bit.
    EXPECT_EQ(fa[i].rank, fb[i].rank);
    EXPECT_EQ(fa[i].amp_draw, fb[i].amp_draw);
    EXPECT_EQ(fa[i].bit, fb[i].bit);
  }
  EXPECT_EQ(fa[0].rank, 2);
  EXPECT_GE(fa[0].bit, 0);  // random draw stays in range
  EXPECT_LT(fa[0].bit, 128);
  EXPECT_EQ(fa[1].rank, 3);
  EXPECT_EQ(fa[1].bit, 17);  // explicit bit is honoured

  EXPECT_EQ(a.totals().bitflips, 2u);
  ASSERT_EQ(a.log().size(), 2u);
  EXPECT_EQ(a.log()[0].kind, FaultKind::kBitFlip);
  EXPECT_EQ(a.log()[1].bit, 17);

  // One-shot latch: replaying the gate (after a rollback) does not
  // re-inject, so replays are clean.
  a.restart();
  EXPECT_TRUE(a.bitflips_at_gate(4).empty());
  EXPECT_TRUE(a.bitflips_at_gate(5).empty());  // wrong gate never fires
}

TEST(Faults, InjectedSignFlipAltersTheStateButNotTheNorm) {
  // H on every qubit: every amplitude is nonzero when the flip lands, so
  // a sign flip is observable in the final state.
  Circuit c(6, "h_all");
  for (int q = 0; q < 6; ++q) {
    c.add(make_h(q));
  }

  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  // Sign-bit flip (bit 63 of the real part): the mutation is observable
  // in the final amplitudes while leaving the norm untouched — exactly
  // the corruption class the norm guard cannot see.
  FaultInjector inj(parse_fault_plan("bitflip@5:1:63"));
  DistStateVector<SoaStorage> faulty(6, 4);
  faulty.set_fault_injector(&inj);
  faulty.apply(c);

  EXPECT_EQ(inj.totals().bitflips, 1u);
  int differing = 0;
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    if (clean.amplitude(i) != faulty.amplitude(i)) {
      ++differing;
    }
  }
  EXPECT_GE(differing, 1);
  EXPECT_NEAR(faulty.norm_sq(), 1.0, 1e-12);  // sign flips keep the norm
}

TEST(Faults, FaultFreeRunsAreUntouchedByTheInjectorHooks) {
  const Circuit c = distributed_bench(6, 4);

  DistStateVector<SoaStorage> plain(6, 4);
  RecordingListener plain_rec;
  plain.set_listener(&plain_rec);
  plain.apply(c);

  FaultInjector inj{FaultPlan{}};  // empty plan: nothing ever fires
  DistStateVector<SoaStorage> hooked(6, 4);
  hooked.set_fault_injector(&inj);
  RecordingListener hooked_rec;
  hooked.set_listener(&hooked_rec);
  hooked.apply(c);

  EXPECT_TRUE(inj.log().empty());
  EXPECT_EQ(plain_rec.events(), hooked_rec.events());
  EXPECT_EQ(plain.comm_stats().messages, hooked.comm_stats().messages);
}

}  // namespace
}  // namespace qsv
