#include "dist/plan.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/units.hpp"

namespace qsv {
namespace {

// The paper's benchmark geometry: 38 qubits on 64 ranks -> L = 32,
// 64 GiB slices, 2 GiB message cap.
constexpr int kN = 38;
constexpr int kL = 32;

DistOptions default_opts() { return DistOptions{}; }

TEST(Plan, LocalHadamard) {
  const OpPlan p = plan_gate(make_h(10), kN, kL, default_opts());
  EXPECT_EQ(p.locality, GateLocality::kLocalMemory);
  EXPECT_EQ(p.local_target, 10);
  EXPECT_DOUBLE_EQ(p.participating_fraction, 1.0);
  EXPECT_EQ(p.combine, OpPlan::Combine::kNone);
}

TEST(Plan, DistributedHadamardPlansFullExchangeIn32Messages) {
  const OpPlan p = plan_gate(make_h(34), kN, kL, default_opts());
  EXPECT_EQ(p.locality, GateLocality::kDistributed);
  EXPECT_EQ(p.combine, OpPlan::Combine::kMatrix1);
  EXPECT_EQ(p.rank_xor_mask, 1ull << 2);
  EXPECT_EQ(p.high_bit, 2);
  EXPECT_EQ(p.exchange_bytes, 64 * units::GiB);
  EXPECT_EQ(p.messages, 32);  // the paper's "32 messages per gate"
  EXPECT_FALSE(p.half_exchange);
}

TEST(Plan, OneHighSwapFullVsHalf) {
  DistOptions opts;
  const Gate swap = make_swap(4, 36);
  OpPlan full = plan_gate(swap, kN, kL, opts);
  EXPECT_EQ(full.combine, OpPlan::Combine::kSwapOneHigh);
  EXPECT_EQ(full.exchange_bytes, 64 * units::GiB);
  EXPECT_EQ(full.messages, 32);
  EXPECT_EQ(full.local_target, 4);

  opts.half_exchange_swaps = true;
  OpPlan half = plan_gate(swap, kN, kL, opts);
  EXPECT_TRUE(half.half_exchange);
  EXPECT_EQ(half.exchange_bytes, 32 * units::GiB);
  EXPECT_EQ(half.messages, 16);
}

TEST(Plan, TwoHighSwapHalvesParticipation) {
  const OpPlan p = plan_gate(make_swap(33, 36), kN, kL, default_opts());
  EXPECT_EQ(p.combine, OpPlan::Combine::kSwapTwoHigh);
  EXPECT_EQ(p.rank_xor_mask, (1ull << 1) | (1ull << 4));
  EXPECT_DOUBLE_EQ(p.participating_fraction, 0.5);
  EXPECT_EQ(p.exchange_bytes, 64 * units::GiB);
  EXPECT_EQ(p.local_target, -1);
}

TEST(Plan, HalfExchangeDoesNotApplyToTwoHighSwap) {
  DistOptions opts;
  opts.half_exchange_swaps = true;
  const OpPlan p = plan_gate(make_swap(33, 36), kN, kL, opts);
  EXPECT_FALSE(p.half_exchange);
  EXPECT_EQ(p.exchange_bytes, 64 * units::GiB);
}

TEST(Plan, HighControlsShrinkParticipation) {
  Gate cx = make_cx(35, 3);  // control on rank bit 3
  const OpPlan p = plan_gate(cx, kN, kL, default_opts());
  EXPECT_EQ(p.locality, GateLocality::kLocalMemory);
  EXPECT_EQ(p.high_mask, 1ull << 3);
  EXPECT_DOUBLE_EQ(p.participating_fraction, 0.5);
}

TEST(Plan, DiagonalWithHighTargetSkipsZeroSlices) {
  const OpPlan p = plan_gate(make_cphase(36, 2, 0.5), kN, kL, default_opts());
  EXPECT_EQ(p.locality, GateLocality::kFullyLocal);
  // CP's high operand is a control-like bit: half the slices are untouched.
  EXPECT_DOUBLE_EQ(p.participating_fraction, 0.5);
}

TEST(Plan, RzOnHighTargetKeepsEveryRankBusy) {
  const OpPlan p = plan_gate(make_rz(36, 0.5), kN, kL, default_opts());
  EXPECT_EQ(p.locality, GateLocality::kFullyLocal);
  EXPECT_DOUBLE_EQ(p.participating_fraction, 1.0);
}

TEST(Plan, MessagesForCountsWholeAmplitudeChunks) {
  const std::size_t cap = 100 * kBytesPerAmp;
  EXPECT_EQ(messages_for(0, cap), 0);
  EXPECT_EQ(messages_for(100, cap), 1);
  EXPECT_EQ(messages_for(101, cap), 2);
  // The paper's case: a 64 GiB slice under a 2 GiB cap = 32 messages.
  EXPECT_EQ(messages_for((64ull << 30) / kBytesPerAmp, 2ull << 30), 32);
}

TEST(Plan, MessageChunkingWithSmallCap) {
  DistOptions opts;
  opts.max_message_bytes = 48;  // 3 amplitudes per message
  const OpPlan p = plan_gate(make_h(5), 6, 4, opts);  // 16-amp slices
  EXPECT_EQ(p.exchange_bytes, 16 * kBytesPerAmp);
  EXPECT_EQ(p.messages, 6);  // ceil(16 / 3)
}

TEST(Plan, HalfExchangeChunksWholeAmplitudes) {
  DistOptions opts;
  opts.half_exchange_swaps = true;
  opts.max_message_bytes = 40;  // 2.5 amplitudes: messages carry 2
  const OpPlan p = plan_gate(make_swap(1, 5), 6, 4, opts);  // 8-amp halves
  EXPECT_EQ(p.exchange_bytes, 8 * kBytesPerAmp);
  EXPECT_EQ(p.messages, 4);
  EXPECT_EQ(p.max_message_bytes, 2 * kBytesPerAmp);
}

TEST(Plan, SendersFollowHighControlsAndTwoHighSwapBits) {
  // 6 qubits on 4 ranks: qubits 4 and 5 are rank bits 0 and 1.
  const OpPlan swap = plan_gate(make_swap(4, 5), 6, 4, default_opts());
  const OpPlan cx = plan_gate(make_cx(5, 4), 6, 4, default_opts());
  const OpPlan local = plan_gate(make_h(0), 6, 4, default_opts());
  EXPECT_EQ(swap.sending_ranks, 2u);
  EXPECT_EQ(cx.sending_ranks, 2u);
  EXPECT_EQ(local.sending_ranks, 0u);
  for (rank_t r = 0; r < 4; ++r) {
    EXPECT_EQ(swap.sends(r), r == 1 || r == 2) << r;  // bits differ
    EXPECT_EQ(cx.sends(r), r >= 2) << r;              // control bit set
    EXPECT_FALSE(local.sends(r)) << r;
    EXPECT_EQ(cx.peer(r), r ^ 1) << r;
  }
}

TEST(Plan, SingleRankDecompositionRejectsNothing) {
  const OpPlan p = plan_gate(make_h(5), 6, 6, default_opts());
  EXPECT_EQ(p.locality, GateLocality::kLocalMemory);
}

TEST(Plan, InvalidDecompositionThrows) {
  EXPECT_THROW((void)plan_gate(make_h(0), 6, 7, default_opts()), Error);
  EXPECT_THROW((void)plan_gate(make_h(0), 6, 0, default_opts()), Error);
}

}  // namespace
}  // namespace qsv
