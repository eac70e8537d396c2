// Property tests: the distributed engine must agree amplitude-for-amplitude
// with the single-address-space engine on randomized circuits, across every
// rank count, both communication policies, and with the half-exchange
// optimisation on or off.
#include <gtest/gtest.h>

#include <tuple>

#include "circuit/builders.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "sv/statevector.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

struct Case {
  int ranks;
  CommPolicy policy;
  bool half_exchange;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  // Built up in place: GCC 12's -Wrestrict misfires on the equivalent
  // operator+ chain (GCC bug 105329).
  std::string name = "r";
  name += std::to_string(c.ranks);
  name += c.policy == CommPolicy::kBlocking ? "_blk" : "_nbl";
  name += c.half_exchange ? "_half" : "_full";
  name += "_s";
  name += std::to_string(c.seed);
  return name;
}

class DistEquivalence : public testing::TestWithParam<Case> {};

TEST_P(DistEquivalence, RandomCircuitMatchesSingleEngine) {
  const Case& p = GetParam();
  const int n = 8;
  Rng circ_rng(p.seed);
  const Circuit c = build_random(n, 120, circ_rng);

  StateVector ref(n);
  Rng init(p.seed + 1000);
  ref.init_random_state(init);

  DistOptions opts;
  opts.policy = p.policy;
  opts.half_exchange_swaps = p.half_exchange;
  opts.max_message_bytes = 128;  // force chunking
  DistStateVectorSoa dist(n, p.ranks, opts);
  dist.init_from(ref);

  ref.apply(c);
  dist.apply(c);
  EXPECT_LT(ref.max_amp_diff(dist.gather()), 1e-10);
  EXPECT_NEAR(dist.norm_sq(), 1.0, 1e-10);
}

TEST_P(DistEquivalence, QftMatchesSingleEngine) {
  const Case& p = GetParam();
  const int n = 8;
  // The default QFT, and QuEST's built-in one: ascending Hadamards, each
  // target's controlled phases fused into one diagonal pass, final swaps.
  QftOptions builtin;
  builtin.ascending = true;
  builtin.fused_phases = true;
  builtin.final_swaps = true;
  for (const QftOptions& qft_opts : {QftOptions{}, builtin}) {
    const Circuit qft = build_qft(n, qft_opts);
    StateVector ref(n);
    Rng init(p.seed + 2000);
    ref.init_random_state(init);

    DistOptions opts;
    opts.policy = p.policy;
    opts.half_exchange_swaps = p.half_exchange;
    DistStateVectorSoa dist(n, p.ranks, opts);
    dist.init_from(ref);

    ref.apply(qft);
    dist.apply(qft);
    EXPECT_LT(ref.max_amp_diff(dist.gather()), 1e-10)
        << (qft_opts.fused_phases ? "built-in QFT" : "default QFT");
  }
}

TEST_P(DistEquivalence, GroverMatchesSingleEngine) {
  const Case& p = GetParam();
  const int n = 6;
  const Circuit grover = build_grover(n, 37 % (1u << n));

  StateVector ref(n);
  DistOptions opts;
  opts.policy = p.policy;
  opts.half_exchange_swaps = p.half_exchange;
  DistStateVectorSoa dist(n, p.ranks, opts);

  ref.apply(grover);
  dist.apply(grover);
  EXPECT_LT(ref.max_amp_diff(dist.gather()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistEquivalence,
    testing::Values(
        Case{2, CommPolicy::kBlocking, false, 1},
        Case{2, CommPolicy::kNonBlocking, true, 2},
        Case{4, CommPolicy::kBlocking, false, 3},
        Case{4, CommPolicy::kBlocking, true, 4},
        Case{4, CommPolicy::kNonBlocking, false, 5},
        Case{8, CommPolicy::kBlocking, true, 6},
        Case{8, CommPolicy::kNonBlocking, false, 7},
        Case{16, CommPolicy::kBlocking, false, 8},
        Case{16, CommPolicy::kNonBlocking, true, 9},
        Case{32, CommPolicy::kBlocking, true, 10},
        Case{32, CommPolicy::kNonBlocking, false, 11}),
    case_name);

// Norm preservation and probability consistency under long random evolution.
class DistInvariants : public testing::TestWithParam<int> {};

TEST_P(DistInvariants, NormAndProbabilitiesStayConsistent) {
  const int ranks = GetParam();
  // n = 8 keeps L >= 2 at 64 ranks: staging a two-qubit dense unitary
  // needs at least two local qubits (QuEST's per-rank minimum likewise).
  const int n = 8;
  Rng rng(ranks);
  const Circuit c = build_random(n, 200, rng);
  DistStateVectorSoa dist(n, ranks);
  StateVector ref(n);
  dist.apply(c);
  ref.apply(c);
  EXPECT_NEAR(dist.norm_sq(), 1.0, 1e-10);
  real_t total = 0;
  for (int q = 0; q < n; ++q) {
    const real_t p = dist.probability_of_one(q);
    EXPECT_GE(p, -1e-12);
    EXPECT_LE(p, 1 + 1e-12);
    EXPECT_NEAR(p, ref.probability_of_one(q), 1e-10);
    total += p;
  }
  (void)total;
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistInvariants,
                         testing::Values(2, 4, 8, 16, 32, 64));

// Interleaved unitaries and measurements: collapse must stay consistent
// between the engines when driven by identical RNG streams.
class DistMeasurementInterleaved : public testing::TestWithParam<int> {};

TEST_P(DistMeasurementInterleaved, CollapseAgreesWithSingleEngine) {
  const int ranks = GetParam();
  const int n = 6;
  Rng circ_rng(ranks + 100);

  StateVector ref(n);
  DistStateVectorSoa dist(n, ranks);
  Rng mr_ref(42);
  Rng mr_dist(42);

  for (int round = 0; round < 4; ++round) {
    const Circuit c = build_random(n, 25, circ_rng);
    ref.apply(c);
    dist.apply(c);
    const qubit_t q = static_cast<qubit_t>(circ_rng.below(n));
    const int o_ref = ref.measure(q, mr_ref);
    const int o_dist = dist.measure(q, mr_dist);
    ASSERT_EQ(o_ref, o_dist) << "round " << round;
    ASSERT_LT(ref.max_amp_diff(dist.gather()), 1e-9) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistMeasurementInterleaved,
                         testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace qsv
