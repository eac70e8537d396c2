// The trace engine must report exactly what the functional engine does.
#include "dist/trace.hpp"

#include <gtest/gtest.h>

#include "circuit/builders.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dist/dist_statevector.hpp"
#include "harness/experiments.hpp"

namespace qsv {
namespace {

struct TraceCase {
  int qubits;
  int ranks;
  CommPolicy policy;
  bool half;
  std::size_t cap = 96;  // force ragged chunking (6 amps/message)
};

class TraceMatchesFunctional : public testing::TestWithParam<TraceCase> {};

TEST_P(TraceMatchesFunctional, EventStreamsAndTrafficAgree) {
  const TraceCase& p = GetParam();
  DistOptions opts;
  opts.policy = p.policy;
  opts.half_exchange_swaps = p.half;
  opts.max_message_bytes = p.cap;

  Rng rng(p.qubits * 100 + p.ranks);
  Circuit c = build_random(p.qubits, 80, rng);
  c.append(build_qft(p.qubits));

  DistStateVectorSoa func(p.qubits, p.ranks, opts);
  TraceSim trace(p.qubits, p.ranks, opts);
  RecordingListener func_rec;
  RecordingListener trace_rec;
  func.set_listener(&func_rec);
  trace.set_listener(&trace_rec);

  func.apply(c);
  trace.apply(c);

  // Identical event streams.
  ASSERT_EQ(func_rec.events().size(), trace_rec.events().size());
  for (std::size_t i = 0; i < func_rec.events().size(); ++i) {
    EXPECT_EQ(func_rec.events()[i], trace_rec.events()[i]) << "event " << i;
  }

  // Identical traffic totals (the functional numbers come from the actual
  // virtual-cluster counters).
  EXPECT_EQ(trace.comm_stats().messages, func.comm_stats().messages);
  EXPECT_EQ(trace.comm_stats().bytes, func.comm_stats().bytes);
  EXPECT_EQ(trace.comm_stats().max_message_bytes,
            func.comm_stats().max_message_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TraceMatchesFunctional,
    testing::Values(TraceCase{6, 2, CommPolicy::kBlocking, false},
                    TraceCase{6, 4, CommPolicy::kNonBlocking, false},
                    TraceCase{7, 8, CommPolicy::kBlocking, true},
                    TraceCase{8, 16, CommPolicy::kNonBlocking, true},
                    TraceCase{8, 4, CommPolicy::kBlocking, true},
                    // 2.5 amplitudes per cap: half exchanges chunk whole
                    // amplitudes, 2 per message.
                    TraceCase{7, 4, CommPolicy::kOverlapped, true, 40}));

TEST(Trace, WorksAtPaperScaleWithoutMemory) {
  // 44 qubits on 4096 ranks: impossible functionally, trivial as a trace.
  TraceSim sim(44, 4096);
  sim.apply(builtin_qft(44));
  EXPECT_EQ(sim.local_qubits(), 32);
  const auto& counts = sim.op_counts();
  // Ascending H on 32..43 distributed (12); swaps pairing i <-> 43-i are
  // distributed for i <= 11 (12).
  EXPECT_EQ(counts.distributed, 24u);
  EXPECT_EQ(counts.fully_local + counts.local_memory + counts.distributed,
            builtin_qft(44).size());
  // Every distributed op ships the whole 64 GiB slice in 32 messages.
  EXPECT_EQ(sim.comm_stats().max_message_bytes, 2 * units::GiB);
}

TEST(Trace, PaperMessageCountAnchor) {
  // "32 messages are exchanged per distributed gate": one distributed H at
  // 64 GiB per rank under the 2 GiB cap.
  TraceSim sim(38, 64);
  sim.apply(build_hadamard_bench(38, 37, 1));
  EXPECT_EQ(sim.comm_stats().messages, 64u * 32u);  // 32 per rank
}

TEST(Trace, OpCountsClassify) {
  TraceSim sim(10, 4);
  sim.apply(build_qft(10));  // ascending, plain CPs
  const auto& c = sim.op_counts();
  EXPECT_EQ(c.fully_local, 45u);   // CPs
  EXPECT_EQ(c.distributed, 4u);    // H(8), H(9), 2 distributed swaps
  EXPECT_EQ(c.local_memory, 11u);  // 8 local H + 3 local swaps
}

TEST(Trace, RegisterLimits) {
  EXPECT_NO_THROW(TraceSim(62, 4096));
  EXPECT_THROW(TraceSim(63, 2), Error);
  EXPECT_THROW(TraceSim(10, 1024), Error);  // 1 amp per rank
}

TEST(Trace, RejectsMessageCapBelowOneAmplitude) {
  // As VirtualCluster does: an 8 B message cannot carry a 16 B amplitude.
  DistOptions opts;
  opts.max_message_bytes = 8;
  EXPECT_THROW(TraceSim(10, 4, opts), Error);
  opts.max_message_bytes = kBytesPerAmp;
  EXPECT_NO_THROW(TraceSim(10, 4, opts));
}

TEST(Trace, HalfExchangeHalvesTrafficOnSwaps) {
  DistOptions full;
  DistOptions half;
  half.half_exchange_swaps = true;
  TraceSim a(38, 64, full);
  TraceSim b(38, 64, half);
  const Circuit bench = build_swap_bench(38, 4, 36, 10);
  a.apply(bench);
  b.apply(bench);
  EXPECT_EQ(b.comm_stats().bytes * 2, a.comm_stats().bytes);
}

}  // namespace
}  // namespace qsv
