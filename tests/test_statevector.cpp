// Statevector engine vs brute-force dense matrices.
#include "sv/statevector.hpp"

#include <gtest/gtest.h>

#include <map>
#include <numbers>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/matrix.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

template <class S>
class StateVectorTyped : public testing::Test {};

using Storages = testing::Types<SoaStorage>;
TYPED_TEST_SUITE(StateVectorTyped, Storages);

TYPED_TEST(StateVectorTyped, InitZeroState) {
  BasicStateVector<TypeParam> sv(3);
  EXPECT_EQ(sv.num_amps(), 8u);
  EXPECT_NEAR(std::abs(sv.amplitude(0) - cplx{1, 0}), 0, 1e-15);
  for (amp_index i = 1; i < 8; ++i) {
    EXPECT_EQ(sv.amplitude(i), (cplx{0, 0}));
  }
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-15);
}

TYPED_TEST(StateVectorTyped, InitBasisState) {
  BasicStateVector<TypeParam> sv(4);
  sv.init_basis_state(11);
  EXPECT_EQ(sv.amplitude(11), (cplx{1, 0}));
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-15);
}

TYPED_TEST(StateVectorTyped, RandomStateIsNormalised) {
  BasicStateVector<TypeParam> sv(6);
  Rng rng(1);
  sv.init_random_state(rng);
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-12);
}

TYPED_TEST(StateVectorTyped, EveryGateMatchesDenseReference) {
  std::vector<Gate> gates = {
      make_h(1),
      make_x(0),
      make_y(3),
      make_z(2),
      make_s(1),
      make_t_gate(0),
      make_phase(2, 0.77),
      make_rx(3, 1.3),
      make_ry(0, -0.9),
      make_rz(1, 2.1),
      make_cx(0, 2),
      make_cz(3, 1),
      make_cphase(2, 0, -1.5),
      make_swap(1, 3),
      make_fused_phase(1, {0, 2, 3}, {0.3, -0.6, 1.2}),
      make_unitary1(2, {0.6, 0, 0.8, 0, -0.8, 0, 0.6, 0}),
  };
  // Random dense 2-qubit unitaries, in both target orders.
  Rng mat_rng(99);
  gates.push_back(make_unitary2(1, 3, random_unitary2_params(mat_rng)));
  gates.push_back(make_unitary2(3, 0, random_unitary2_params(mat_rng)));
  for (const Gate& g : gates) {
    BasicStateVector<TypeParam> sv(4);
    Rng rng(42);
    sv.init_random_state(rng);
    const auto in = sv.to_vector();
    sv.apply(g);
    const auto want = DenseMatrix::of_gate(g, 4).apply(in);
    test::expect_state_eq(sv.to_vector(), want);
  }
}

TYPED_TEST(StateVectorTyped, MultiControlledGateMatchesDense) {
  // Grover-style multi-controlled Z and a doubly-controlled X.
  Gate mcz = make_z(0);
  mcz.controls = {1, 2, 3};
  Gate ccx = make_x(3);
  ccx.controls = {0, 2};

  for (const Gate& g : {mcz, ccx}) {
    BasicStateVector<TypeParam> sv(4);
    Rng rng(17);
    sv.init_random_state(rng);
    const auto in = sv.to_vector();
    sv.apply(g);
    test::expect_state_eq(sv.to_vector(),
                          DenseMatrix::of_gate(g, 4).apply(in));
  }
}

TYPED_TEST(StateVectorTyped, RandomCircuitMatchesDense) {
  Rng rng(123);
  const Circuit c = build_random(5, 80, rng);
  BasicStateVector<TypeParam> sv(5);
  Rng init(9);
  sv.init_random_state(init);
  const auto in = sv.to_vector();
  sv.apply(c);
  test::expect_state_eq(sv.to_vector(), test::dense_apply(c, in), 1e-9);
}

TYPED_TEST(StateVectorTyped, NormPreservedByRandomCircuit) {
  Rng rng(55);
  const Circuit c = build_random(7, 150, rng);
  BasicStateVector<TypeParam> sv(7);
  sv.apply(c);
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-10);
}

TYPED_TEST(StateVectorTyped, ProbabilityOfOne) {
  BasicStateVector<TypeParam> sv(2);
  sv.apply(make_h(0));
  EXPECT_NEAR(sv.probability_of_one(0), 0.5, 1e-12);
  EXPECT_NEAR(sv.probability_of_one(1), 0.0, 1e-12);
  sv.apply(make_x(1));
  EXPECT_NEAR(sv.probability_of_one(1), 1.0, 1e-12);
}

TYPED_TEST(StateVectorTyped, MeasureCollapsesAndNormalises) {
  BasicStateVector<TypeParam> sv(3);
  sv.apply(make_h(0));
  sv.apply(make_cx(0, 1));  // Bell pair on 0,1
  Rng rng(2);
  const int outcome = sv.measure(0, rng);
  // After measuring qubit 0, qubit 1 must agree with it.
  EXPECT_NEAR(sv.probability_of_one(1), static_cast<real_t>(outcome), 1e-12);
  EXPECT_NEAR(sv.norm_sq(), 1.0, 1e-12);
}

TYPED_TEST(StateVectorTyped, MeasureStatistics) {
  int ones = 0;
  Rng rng(31);
  for (int trial = 0; trial < 400; ++trial) {
    BasicStateVector<TypeParam> sv(1);
    sv.apply(make_ry(0, 2 * std::acos(std::sqrt(0.3))));  // P(1) = 0.7
    ones += sv.measure(0, rng);
  }
  EXPECT_NEAR(ones / 400.0, 0.7, 0.08);
}

TYPED_TEST(StateVectorTyped, SampleFollowsDistribution) {
  BasicStateVector<TypeParam> sv(2);
  sv.apply(make_h(0));
  Rng rng(77);
  int counts[4] = {};
  for (int i = 0; i < 1000; ++i) {
    ++counts[sv.sample(rng)];
  }
  EXPECT_NEAR(counts[0], 500, 80);
  EXPECT_NEAR(counts[1], 500, 80);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 0);
}

TYPED_TEST(StateVectorTyped, SampleCountsIsTheHistogramOfSampleCalls) {
  // A random 10-qubit state: one seeded sample_counts call draws the same
  // outcomes as that many sample() calls from the same seed.
  Rng build(12);
  BasicStateVector<TypeParam> sv(10);
  sv.apply(build_random(10, 60, build));
  constexpr int kShots = 3000;
  Rng one_by_one(5);
  std::map<amp_index, int> want;
  for (int s = 0; s < kShots; ++s) {
    ++want[sv.sample(one_by_one)];
  }
  Rng batched(5);
  EXPECT_EQ(sv.sample_counts(kShots, batched), want);
  EXPECT_EQ(batched.uniform(), one_by_one.uniform());  // same draws used
}

TYPED_TEST(StateVectorTyped, InnerProductAndFidelity) {
  BasicStateVector<TypeParam> a(3);
  BasicStateVector<TypeParam> b(3);
  EXPECT_NEAR(std::abs(a.inner_product(b) - cplx{1, 0}), 0, 1e-15);
  b.apply(make_x(0));
  EXPECT_NEAR(a.fidelity(b), 0.0, 1e-15);
  a.apply(make_x(0));
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-15);
}

TYPED_TEST(StateVectorTyped, GhzState) {
  BasicStateVector<TypeParam> sv(4);
  sv.apply(build_ghz(4));
  EXPECT_NEAR(std::abs(sv.amplitude(0)), std::numbers::sqrt2_v<real_t> / 2,
              1e-12);
  EXPECT_NEAR(std::abs(sv.amplitude(15)), std::numbers::sqrt2_v<real_t> / 2,
              1e-12);
  for (amp_index i = 1; i < 15; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitude(i)), 0.0, 1e-12);
  }
}

TYPED_TEST(StateVectorTyped, GroverFindsMarkedState) {
  const amp_index marked = 5;
  BasicStateVector<TypeParam> sv(4);
  sv.apply(build_grover(4, marked));
  EXPECT_GT(sv.probability_of_outcome(marked), 0.9);
}

/// One qubit past parallel_for's cutoff: every loop over the register, and
/// the sweep's tile loop, opens a team whenever the loop width allows.
constexpr int kTeamQubits = bits::log2_exact(kParallelMinAmps) + 1;

/// Runs `f` at loop width 1 and at width 4 and returns both results, or
/// nothing when the width cannot be set (built without OpenMP).
template <class F>
auto at_widths_1_and_4(F f) -> std::optional<std::pair<decltype(f()),
                                                       decltype(f())>> {
  const int saved = loop_width();
  set_loop_width(1);
  auto one = f();
  set_loop_width(4);
  const bool settable = loop_width() == 4;
  auto four = f();
  set_loop_width(saved);
  if (!settable) {
    return std::nullopt;
  }
  return std::pair{std::move(one), std::move(four)};
}

TEST(StateVector, ReductionsAreTheSameDoubleAtAnyThreadCount) {
  StateVector sv(kTeamQubits);
  Rng rng(7);
  sv.init_random_state(rng);
  const auto runs = at_widths_1_and_4([&] {
    std::vector<real_t> out{sv.norm_sq()};
    for (qubit_t q = 0; q < sv.num_qubits(); ++q) {
      out.push_back(sv.probability_of_one(q));
    }
    return out;
  });
  if (!runs) {
    GTEST_SKIP() << "built without OpenMP";
  }
  EXPECT_EQ(runs->first, runs->second);
}

TEST(StateVector, GatesAreTheSameAtAnyThreadCount) {
  Rng circuit_rng(8);
  const Circuit c = build_rcs(kTeamQubits, 4, circuit_rng);
  const auto runs = at_widths_1_and_4([&] {
    StateVector sv(kTeamQubits);
    Rng rng(9);
    sv.init_random_state(rng);
    sv.apply(c);
    return sv.to_vector();
  });
  if (!runs) {
    GTEST_SKIP() << "built without OpenMP";
  }
  EXPECT_TRUE(runs->first == runs->second);
}

TEST(StateVector, RejectsOutOfRange) {
  StateVector sv(3);
  EXPECT_THROW((void)sv.amplitude(8), Error);
  EXPECT_THROW(sv.apply(make_h(3)), Error);
  EXPECT_THROW(sv.init_basis_state(8), Error);
  EXPECT_THROW((void)sv.probability_of_one(3), Error);
}

}  // namespace
}  // namespace qsv
