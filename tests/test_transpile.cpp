#include <gtest/gtest.h>

#include <numeric>

#include "circuit/builders.hpp"
#include "circuit/locality.hpp"
#include "circuit/transpile/cache_blocking.hpp"
#include "circuit/transpile/cleanup.hpp"
#include "circuit/transpile/greedy_cache_blocking.hpp"
#include "circuit/transpile/pass.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sv/statevector.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

/// Applies both circuits to the same random state and compares amplitudes.
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
  EXPECT_LT(sa.max_amp_diff(sb), 1e-10);
}

TEST(TrailingSwaps, PermutationOfQftSuffixIsReversal) {
  const Circuit qft = build_qft(8);
  const auto s = CacheBlockingPass::trailing_swap_permutation(qft);
  EXPECT_EQ(s.num_swaps, 4u);
  for (int q = 0; q < 8; ++q) {
    EXPECT_EQ(s.perm[q], 7 - q);
  }
}

TEST(TrailingSwaps, ComposesInOrder) {
  Circuit c(3);
  c.add(make_h(0));          // body
  c.add(make_swap(0, 1));    // suffix
  c.add(make_swap(1, 2));
  const auto s = CacheBlockingPass::trailing_swap_permutation(c);
  EXPECT_EQ(s.num_swaps, 2u);
  // Conjugating a gate on 0 by SWAP(0,1) then SWAP(1,2) lands it on 2.
  EXPECT_EQ(s.perm[0], 2);
  EXPECT_EQ(s.perm[1], 0);
  EXPECT_EQ(s.perm[2], 1);
}

TEST(TrailingSwaps, NoSuffix) {
  Circuit c(3);
  c.add(make_h(0));
  const auto s = CacheBlockingPass::trailing_swap_permutation(c);
  EXPECT_EQ(s.num_swaps, 0u);
  std::vector<qubit_t> id(3);
  std::iota(id.begin(), id.end(), 0);
  EXPECT_EQ(s.perm, id);
}

TEST(CacheBlocking, RemovesDistributedHadamardsFromQft) {
  // 10-qubit QFT over 4 ranks (L = 8): ascending H gates on 8, 9 are
  // distributed; after blocking only SWAPs communicate.
  QftOptions opts;
  opts.ascending = true;
  opts.fused_phases = true;
  const Circuit qft = build_qft(10, opts);
  CacheBlockingOptions copts;
  copts.local_qubits = 8;
  const Circuit blocked = CacheBlockingPass(copts).run(qft);

  const LocalityStats before = analyze_locality(qft, 8);
  const LocalityStats after = analyze_locality(blocked, 8);
  EXPECT_GT(before.distributed, after.distributed);
  for (const Gate& g : blocked) {
    if (classify_gate(g, 8) == GateLocality::kDistributed) {
      EXPECT_EQ(g.kind, GateKind::kSwap) << g.str();
    }
  }
  // Gate count is unchanged: the SWAPs moved, nothing was added.
  EXPECT_EQ(blocked.size(), qft.size());
}

TEST(CacheBlocking, EquivalentForAllDecompositions) {
  QftOptions opts;
  opts.ascending = true;
  opts.fused_phases = true;
  const Circuit qft = build_qft(8, opts);
  for (int local = 1; local <= 8; ++local) {
    CacheBlockingOptions copts;
    copts.local_qubits = local;
    const Circuit blocked = CacheBlockingPass(copts).run(qft);
    expect_equivalent(qft, blocked, local);
  }
}

TEST(CacheBlocking, ThresholdShiftsTheCut) {
  // Paper §3.2: reflect before the NUMA-penalised top local qubits. With
  // threshold = L - 2, Hadamards on L-2 and L-1 also get reflected away.
  QftOptions opts;
  opts.ascending = true;
  const Circuit qft = build_qft(10, opts);
  CacheBlockingOptions copts;
  copts.local_qubits = 8;
  copts.reflect_threshold = 6;
  const Circuit blocked = CacheBlockingPass(copts).run(qft);
  expect_equivalent(qft, blocked);
  // No Hadamard may target qubits >= 6 in the blocked circuit.
  for (const Gate& g : blocked) {
    if (g.kind == GateKind::kH) {
      EXPECT_LT(g.targets[0], 6) << g.str();
    }
  }
}

TEST(CacheBlocking, NoSuffixMeansNoChange) {
  Circuit c(6);
  c.add(make_h(5)).add(make_h(0));
  CacheBlockingOptions copts;
  copts.local_qubits = 4;
  const Circuit out = CacheBlockingPass(copts).run(c);
  EXPECT_EQ(out.size(), c.size());
  EXPECT_EQ(out.gate(0), c.gate(0));
}

TEST(CacheBlocking, SingleRankPassThrough) {
  const Circuit qft = build_qft(6);
  CacheBlockingOptions copts;
  copts.local_qubits = 6;
  const Circuit out = CacheBlockingPass(copts).run(qft);
  EXPECT_EQ(out.size(), qft.size());
}

TEST(CacheBlocking, RequireBenefitBlocksUselessRewrites) {
  // A circuit whose suffix swap would not reduce distributed gates.
  Circuit c(6);
  c.add(make_h(0));
  c.add(make_swap(0, 1));  // local-only suffix
  CacheBlockingOptions copts;
  copts.local_qubits = 4;
  const Circuit out = CacheBlockingPass(copts).run(c);
  EXPECT_EQ(out.size(), c.size());
  EXPECT_EQ(out.gate(0), c.gate(0));  // untouched
}

TEST(CacheBlocking, ConvenienceBuilderMatchesManualPass) {
  const Circuit a = build_cache_blocked_qft(9, 6);
  QftOptions opts;
  opts.ascending = true;
  opts.fused_phases = true;
  const Circuit qft = build_qft(9, opts);
  expect_equivalent(a, qft);
}

TEST(GreedyCacheBlocking, LocalisesHadamardBenchmark) {
  // 50 H on the top qubit: one inserted SWAP, then everything is local.
  const Circuit bench = build_hadamard_bench(8, 7, 50);
  GreedyCacheBlockingOptions gopts;
  gopts.local_qubits = 6;
  const auto res = GreedyCacheBlockingPass(gopts).run_with_stats(bench);

  const LocalityStats before = analyze_locality(bench, 6);
  const LocalityStats after = analyze_locality(res.circuit, 6);
  EXPECT_EQ(before.distributed, 50u);
  EXPECT_LE(after.distributed, 2u);  // the localising SWAP + restoration
  expect_equivalent(bench, res.circuit);
}

TEST(GreedyCacheBlocking, EquivalentOnRandomCircuits) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    Rng rng(seed);
    const Circuit c = build_random(7, 60, rng);
    for (int local : {3, 5}) {
      GreedyCacheBlockingOptions gopts;
      gopts.local_qubits = local;
      const Circuit out = GreedyCacheBlockingPass(gopts).run(c);
      expect_equivalent(c, out, seed);
    }
  }
}

TEST(GreedyCacheBlocking, RestoreLayoutEndsAtIdentity) {
  // The closing SWAPs return every logical qubit to its own slot: the
  // output is the input's unitary with no relabelling left over.
  Rng rng(9);
  const Circuit c = build_random(6, 40, rng);
  GreedyCacheBlockingOptions gopts;
  gopts.local_qubits = 3;
  const auto res = GreedyCacheBlockingPass(gopts).run_with_stats(c);
  EXPECT_GT(res.inserted_swaps, 0u);
  expect_equivalent(c, res.circuit, 9);
}

TEST(GreedyCacheBlocking, LookaheadSkipsTouchOnceTargets) {
  // GHZ touches each distributed qubit once: with reuse lookahead the pass
  // must leave the circuit alone instead of inserting losing SWAPs.
  const Circuit ghz = build_ghz(8);
  GreedyCacheBlockingOptions gopts;
  gopts.local_qubits = 5;
  gopts.min_reuse = 2;
  const auto res = GreedyCacheBlockingPass(gopts).run_with_stats(ghz);
  EXPECT_EQ(res.inserted_swaps, 0u);
  EXPECT_EQ(analyze_locality(res.circuit, 5).distributed,
            analyze_locality(ghz, 5).distributed);
}

TEST(GreedyCacheBlocking, LookaheadStillLocalisesHotTargets) {
  const Circuit bench = build_hadamard_bench(8, 7, 50);
  GreedyCacheBlockingOptions gopts;
  gopts.local_qubits = 6;
  gopts.min_reuse = 2;
  const auto res = GreedyCacheBlockingPass(gopts).run_with_stats(bench);
  EXPECT_LE(analyze_locality(res.circuit, 6).distributed, 2u);
  expect_equivalent(bench, res.circuit);
}

TEST(GreedyCacheBlocking, LookaheadNoWorseThanClassicGreedyOnRandom) {
  // On dense random circuits no static pass can win (every qubit is hot,
  // so some logical qubit always lives in a distributed slot); the honest
  // property is that refusing non-reused localisations never loses to the
  // always-localise policy, and semantics are preserved.
  GreedyCacheBlockingOptions greedy;
  greedy.local_qubits = 5;
  GreedyCacheBlockingOptions look = greedy;
  look.min_reuse = 2;
  for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
    Rng rng(seed);
    const Circuit c = build_random(8, 80, rng);
    const Circuit g_out = GreedyCacheBlockingPass(greedy).run(c);
    const Circuit l_out = GreedyCacheBlockingPass(look).run(c);
    EXPECT_LE(analyze_locality(l_out, 5).distributed,
              analyze_locality(g_out, 5).distributed)
        << seed;
    expect_equivalent(c, l_out, seed);
  }
}

TEST(GreedyCacheBlocking, LookaheadWindowBoundsTheScan) {
  // Two H gates on distributed qubit 7 with `gap` local gates between
  // them. With min_reuse = 2 the first H localises qubit 7 only when the
  // second lies inside the window that starts at the first.
  auto reuse_after = [](std::size_t gap) {
    Circuit c(8);
    c.add(make_h(7));
    for (std::size_t i = 0; i < gap; ++i) {
      c.add(make_h(1));
    }
    c.add(make_h(7));
    return c;
  };
  GreedyCacheBlockingOptions gopts;
  gopts.local_qubits = 6;
  gopts.min_reuse = 2;
  const GreedyCacheBlockingPass pass(gopts);
  const auto outside = pass.run_with_stats(
      reuse_after(kGreedyLookaheadWindow - 1));
  EXPECT_EQ(outside.inserted_swaps, 0u);
  const auto inside = pass.run_with_stats(
      reuse_after(kGreedyLookaheadWindow - 2));
  EXPECT_GT(inside.inserted_swaps, 0u);
}

TEST(GreedyCacheBlocking, RejectsBadMinReuse) {
  GreedyCacheBlockingOptions gopts;
  gopts.local_qubits = 4;
  gopts.min_reuse = 0;
  EXPECT_THROW(GreedyCacheBlockingPass{gopts}, Error);
}

TEST(Cleanup, CancelsSelfInversePairs) {
  Circuit c(3);
  c.add(make_h(0)).add(make_h(0)).add(make_x(1));
  const Circuit out = CleanupPass().run(c);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.gate(0).kind, GateKind::kX);
}

TEST(Cleanup, CancelsCascades) {
  // H X X H collapses fully across two sweeps.
  Circuit c(2);
  c.add(make_h(0)).add(make_x(0)).add(make_x(0)).add(make_h(0));
  const Circuit out = CleanupPass().run(c);
  EXPECT_EQ(out.size(), 0u);
}

TEST(Cleanup, MergesPhases) {
  Circuit c(2);
  c.add(make_cphase(0, 1, 0.5)).add(make_cphase(0, 1, 0.25));
  const Circuit out = CleanupPass().run(c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out.gate(0).params[0], 0.75);
}

TEST(Cleanup, DropsFullCirclePhases) {
  Circuit c(1);
  const real_t pi = std::numbers::pi_v<real_t>;
  c.add(make_phase(0, pi)).add(make_phase(0, pi));
  EXPECT_EQ(CleanupPass().run(c).size(), 0u);
}

TEST(Cleanup, KeepsDifferentOperandsApart) {
  Circuit c(3);
  c.add(make_h(0)).add(make_h(1));
  EXPECT_EQ(CleanupPass().run(c).size(), 2u);
}

TEST(Cleanup, PreservesSemantics) {
  Rng rng(77);
  const Circuit c = build_random(5, 80, rng);
  expect_equivalent(c, CleanupPass().run(c));
}

}  // namespace
}  // namespace qsv
