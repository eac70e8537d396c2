#include "circuit/transpile/fusion.hpp"

#include <gtest/gtest.h>

#include "circuit/builders.hpp"
#include "circuit/locality.hpp"
#include "common/rng.hpp"
#include "sv/statevector.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

void expect_equivalent(const Circuit& a, const Circuit& b,
                       std::uint64_t seed = 1) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits());
  StateVector sa(a.num_qubits());
  StateVector sb(a.num_qubits());
  Rng rng(seed);
  sa.init_random_state(rng);
  for (amp_index i = 0; i < sa.num_amps(); ++i) {
    sb.set_amplitude(i, sa.amplitude(i));
  }
  sa.apply(a);
  sb.apply(b);
  EXPECT_LT(sa.max_amp_diff(sb), 1e-9);
}

TEST(Fusion, MergesRunOnOneQubit) {
  Circuit c(2);
  c.add(make_h(0)).add(make_t_gate(0)).add(make_h(0)).add(make_x(1));
  const Circuit out = FusionPass().run(c);
  // Three gates on qubit 0 fuse to one kUnitary1; the lone X stays.
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out.count_kind(GateKind::kUnitary1), 1u);
  EXPECT_EQ(out.count_kind(GateKind::kX), 1u);
  expect_equivalent(c, out);
}

TEST(Fusion, RespectsMinRun) {
  Circuit c(2);
  c.add(make_h(0)).add(make_cx(0, 1)).add(make_h(0));
  const Circuit out = FusionPass().run(c);
  // Runs of one gate stay as they are.
  EXPECT_EQ(out.count_kind(GateKind::kH), 2u);
  EXPECT_EQ(out.count_kind(GateKind::kUnitary1), 0u);
}

TEST(Fusion, ControlledGatesFlushTheirControls) {
  // Pending X on qubit 0 must not commute past a gate controlled on 0.
  Circuit c(2);
  c.add(make_x(0)).add(make_ry(0, 0.3)).add(make_cx(0, 1)).add(make_h(1));
  const Circuit out = FusionPass().run(c);
  expect_equivalent(c, out);
  // The fused unitary must appear before the CX.
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out.gate(0).kind, GateKind::kUnitary1);
  EXPECT_EQ(out.gate(1).kind, GateKind::kCx);
}

TEST(Fusion, AbsorbsIntoTwoQubitUnitary) {
  Rng rng(3);
  Circuit c(3);
  c.add(make_h(0)).add(make_s(0)).add(make_ry(2, 0.7)).add(make_rz(2, -0.2));
  c.add(make_unitary2(0, 2, random_unitary2_params(rng)));
  const Circuit out = FusionPass().run(c);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.gate(0).kind, GateKind::kUnitary2);
  expect_equivalent(c, out);
}

TEST(Fusion, PreservesSemanticsOnRandomCircuits) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    Rng rng(seed);
    const Circuit c = build_random(6, 120, rng);
    const Circuit out = FusionPass().run(c);
    EXPECT_LE(out.size(), c.size());
    expect_equivalent(c, out, seed);
  }
}

TEST(Fusion, NeverIncreasesDistributedGateCount) {
  for (std::uint64_t seed : {7ull, 8ull}) {
    Rng rng(seed);
    const Circuit c = build_random(8, 100, rng);
    const Circuit out = FusionPass().run(c);
    for (int local : {4, 6}) {
      EXPECT_LE(analyze_locality(out, local).distributed,
                analyze_locality(c, local).distributed)
          << seed << " L=" << local;
    }
  }
}

TEST(Fusion, LongRunCollapsesToOneGate) {
  Circuit c(1);
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    c.add(make_rx(0, rng.uniform(-1, 1)));
    c.add(make_rz(0, rng.uniform(-1, 1)));
  }
  const Circuit out = FusionPass().run(c);
  EXPECT_EQ(out.size(), 1u);
  expect_equivalent(c, out);
}

TEST(Fusion, AllDiagonalRunsStayUnfused) {
  // Fusing S,T,RZ into a dense matrix would trade three cheap scans for a
  // pair kernel (and distribute the gate on a rank-bit qubit): keep them.
  Circuit c(2);
  c.add(make_s(1)).add(make_t_gate(1)).add(make_rz(1, 0.4));
  const Circuit out = FusionPass().run(c);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.count_kind(GateKind::kUnitary1), 0u);
  expect_equivalent(c, out);
}

TEST(Fusion, MixedRunsIncludingDiagonalsFuse) {
  Circuit c(1);
  c.add(make_h(0)).add(make_s(0)).add(make_t_gate(0)).add(make_h(0));
  const Circuit out = FusionPass().run(c);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.gate(0).kind, GateKind::kUnitary1);
  expect_equivalent(c, out);
}

TEST(Fusion, FusionLocalisesHotDistributedQubit) {
  // 50 Hadamards on a rank-bit qubit fuse to ONE distributed dense gate:
  // fusion alone removes 49 of the paper's most expensive operations.
  const Circuit bench = build_hadamard_bench(8, 7, 50);
  const Circuit out = FusionPass().run(bench);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(analyze_locality(out, 6).distributed, 1u);
  expect_equivalent(bench, out);
}

}  // namespace
}  // namespace qsv
