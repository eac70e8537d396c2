#include "dist/observables.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/matrix.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

/// Dense-matrix reference: builds the full operator of a term and brackets.
cplx dense_bracket(const StateVector& sv, const PauliTerm& term) {
  const int n = sv.num_qubits();
  DenseMatrix op = DenseMatrix::identity(n);
  for (const auto& [q, p] : term.factors) {
    Gate g;
    switch (p) {
      case Pauli::kX: g = make_x(q); break;
      case Pauli::kY: g = make_y(q); break;
      case Pauli::kZ: g = make_z(q); break;
      case Pauli::kI: continue;
    }
    op = DenseMatrix::of_gate(g, n).mul(op);
  }
  const auto v = sv.to_vector();
  const auto pv = op.apply(v);
  cplx acc = 0;
  for (amp_index i = 0; i < v.size(); ++i) {
    acc += std::conj(v[i]) * pv[i];
  }
  return acc * term.coefficient;
}

TEST(PauliTerm, ParseCompactForm) {
  const PauliTerm t = PauliTerm::parse("XIZ");
  ASSERT_EQ(t.factors.size(), 2u);
  EXPECT_EQ(t.factors[0], (std::pair<qubit_t, Pauli>{0, Pauli::kX}));
  EXPECT_EQ(t.factors[1], (std::pair<qubit_t, Pauli>{2, Pauli::kZ}));
  EXPECT_DOUBLE_EQ(t.coefficient, 1.0);
}

TEST(PauliTerm, ParseLabelledFormWithCoefficient) {
  const PauliTerm t = PauliTerm::parse("-0.5 * X0 Y3 Z5");
  EXPECT_DOUBLE_EQ(t.coefficient, -0.5);
  ASSERT_EQ(t.factors.size(), 3u);
  EXPECT_EQ(t.factors[1], (std::pair<qubit_t, Pauli>{3, Pauli::kY}));
  EXPECT_EQ(t.max_qubit(), 5);
}

TEST(PauliTerm, ParseRejectsGarbage) {
  EXPECT_THROW(PauliTerm::parse(""), Error);
  EXPECT_THROW(PauliTerm::parse("Q0"), Error);
  EXPECT_THROW(PauliTerm::parse("X0 X0"), Error);
  EXPECT_THROW(PauliTerm::parse("abc * X0"), Error);
}

TEST(PauliTerm, StrRoundTripsMeaning) {
  const PauliTerm t = PauliTerm::parse("2.5 * X1 Z4");
  const PauliTerm u = PauliTerm::parse(t.str());
  EXPECT_DOUBLE_EQ(u.coefficient, 2.5);
  EXPECT_EQ(u.factors, t.factors);
}

TEST(Observables, IdentityTermGivesNorm) {
  StateVector sv(4);
  Rng rng(3);
  sv.init_random_state(rng);
  PauliTerm id;
  id.coefficient = 3.0;
  EXPECT_NEAR(expectation(sv, id), 3.0, 1e-12);
}

TEST(Observables, ZOnBasisStates) {
  StateVector sv(3);
  sv.init_basis_state(0b101);
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("Z0")), -1.0, 1e-12);
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("Z1")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("Z0 Z2")), 1.0, 1e-12);
}

TEST(Observables, XOnPlusState) {
  StateVector sv(2);
  sv.apply(make_h(0));
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("X0")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("Z0")), 0.0, 1e-12);
}

TEST(Observables, YOnCircularState) {
  StateVector sv(1);
  sv.apply(make_h(0));
  sv.apply(make_s(0));  // |+i> eigenstate of Y
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("Y0")), 1.0, 1e-12);
}

TEST(Observables, GhzCorrelations) {
  StateVector sv(4);
  sv.apply(build_ghz(4));
  // <Z_i Z_j> = 1, <Z_i> = 0, <XXXX> = 1 for GHZ.
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("Z0 Z3")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("Z2")), 0.0, 1e-12);
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("XXXX")), 1.0, 1e-12);
  EXPECT_NEAR(expectation(sv, PauliTerm::parse("YYXX")), -1.0, 1e-12);
}

class ObservablesRandom : public testing::TestWithParam<const char*> {};

TEST_P(ObservablesRandom, MatchesDenseReference) {
  Rng rng(11);
  const Circuit c = build_random(5, 60, rng);
  StateVector sv(5);
  sv.apply(c);
  const PauliTerm t = PauliTerm::parse(GetParam());
  EXPECT_NEAR(expectation(sv, t), dense_bracket(sv, t).real(), 1e-10)
      << GetParam();
  // Hermitian operators have real expectation.
  EXPECT_NEAR(pauli_bracket(sv, t).imag(), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Terms, ObservablesRandom,
                         testing::Values("X0", "Y2", "Z4", "X0 Y1", "Z0 Z3",
                                         "X0 Y1 Z2", "0.7 * Y0 Y4",
                                         "XYZXY", "-1.5 * X2 Z3"));

TEST(Observables, SumsAddUp) {
  StateVector sv(3);
  sv.apply(build_ghz(3));
  PauliSum h;
  h.terms.push_back(PauliTerm::parse("0.5 * Z0 Z1"));
  h.terms.push_back(PauliTerm::parse("0.5 * Z1 Z2"));
  h.terms.push_back(PauliTerm::parse("2 * X0 X1 X2"));
  EXPECT_NEAR(expectation(sv, h), 0.5 + 0.5 + 2.0, 1e-12);
  EXPECT_EQ(h.max_qubit(), 2);
}

TEST(Observables, DistributedMatchesSingle) {
  Rng rng(21);
  const Circuit c = build_random(6, 80, rng);
  StateVector ref(6);
  DistStateVector<SoaStorage> dist(6, 8);
  ref.apply(c);
  dist.apply(c);
  for (const char* s : {"Z5", "X5", "X0 Y5", "ZZZZZZ", "0.3 * Y2 X4"}) {
    const PauliTerm t = PauliTerm::parse(s);
    EXPECT_NEAR(expectation(dist, t), expectation(ref, t), 1e-10) << s;
  }
}

TEST(Observables, DistributedEqualsGatheredBitForBit) {
  // The distributed diagonal pass reads the slices directly; its result is
  // the same double as the reference loop on the gathered state, not just
  // close to it. One X/Y term pins the general distributed loop too.
  Rng rng(5);
  const Circuit c = build_rcs(12, 6, rng);
  std::vector<PauliTerm> terms;
  for (qubit_t q = 0; q < 12; ++q) {
    PauliTerm z;
    z.factors = {{q, Pauli::kZ}};
    terms.push_back(z);
  }
  terms.push_back(PauliTerm::parse("0.5 * Z0 Z3 Z10 Z11"));
  terms.push_back(PauliTerm::parse("X1 Y11 Z4"));
  for (const int ranks : {1, 2, 8}) {
    DistStateVector<SoaStorage> dist(12, ranks);
    dist.apply(c);
    const StateVector gathered = dist.gather();
    for (const PauliTerm& t : terms) {
      EXPECT_EQ(expectation(dist, t), expectation(gathered, t))
          << t.str() << " at " << ranks << " ranks";
    }
  }
}

TEST(Observables, SharedPassEqualsEachTermBitForBit) {
  // qsv run reads every <Z_q> from one shared pass over the slices. Each
  // value must be the double that term alone gives (itself the pass's
  // one-mask case) and the reference loop on the gathered state gives,
  // whichever terms share the call: a multi-qubit Z string, the identity
  // and an X/Y term ride along, and slices smaller than one sign block
  // (5 qubits on 8 ranks) are covered as well as larger ones.
  for (const int n : {5, 11}) {
    Rng rng(11);
    const Circuit c = build_rcs(n, 8, rng);
    std::vector<PauliTerm> terms;
    for (qubit_t q = 0; q < n; ++q) {
      PauliTerm z;
      z.factors = {{q, Pauli::kZ}};
      terms.push_back(z);
    }
    terms.push_back(PauliTerm::parse("-0.5 * Z0 Z2 Z3 Z4"));
    terms.push_back(PauliTerm{});
    terms.push_back(PauliTerm::parse("X1 Y4 Z2"));
    for (const int ranks : {1, 2, 4, 8}) {
      for (const int threads : {0, ranks}) {
        DistOptions o;
        o.threading.threads = threads;
        DistStateVector<SoaStorage> dist(n, ranks, o);
        dist.apply(c);
        const StateVector gathered = dist.gather();
        for (const std::size_t count : {std::size_t{2}, std::size_t{3},
                                        terms.size()}) {
          const std::span<const PauliTerm> some(terms.data(), count);
          const std::vector<real_t> shared = expectations(dist, some);
          ASSERT_EQ(shared.size(), count);
          for (std::size_t k = 0; k < count; ++k) {
            const std::string what =
                terms[k].str() + " of " + std::to_string(count) + " at " +
                std::to_string(n) + " qubits, " + std::to_string(ranks) +
                " ranks, " + std::to_string(threads) + " rank threads";
            EXPECT_EQ(std::bit_cast<std::uint64_t>(shared[k]),
                      std::bit_cast<std::uint64_t>(
                          expectation(dist, terms[k])))
                << what;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(shared[k]),
                      std::bit_cast<std::uint64_t>(
                          expectation(gathered, terms[k])))
                << what;
          }
        }
      }
    }
  }
}

TEST(Observables, NormIsTheIdentityChainBitForBit) {
  // norm_sq is the readout's chain for the empty mask, the guard's norm
  // check reads it, and its additions run in the identity term's order,
  // on both engines and at every rank count.
  Rng rng(13);
  const Circuit c = build_rcs(11, 6, rng);
  for (const int ranks : {1, 2, 4, 8}) {
    for (const int threads : {0, ranks}) {
      DistOptions o;
      o.threading.threads = threads;
      DistStateVector<SoaStorage> dist(11, ranks, o);
      dist.apply(c);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dist.norm_sq()),
                std::bit_cast<std::uint64_t>(expectation(dist, PauliTerm{})))
          << ranks << " ranks, " << threads << " rank threads";
    }
  }
}

TEST(Observables, RejectsOutOfRange) {
  StateVector sv(3);
  EXPECT_THROW((void)expectation(sv, PauliTerm::parse("X5")), Error);
}

TEST(Observables, EnergyOfIsingGroundishState) {
  // H = -sum Z_i Z_{i+1}: the all-zeros product state is a ground state
  // with energy -(n-1).
  const int n = 5;
  StateVector sv(n);
  PauliSum h;
  for (int q = 0; q + 1 < n; ++q) {
    PauliTerm t;
    t.coefficient = -1.0;
    t.factors = {{q, Pauli::kZ}, {q + 1, Pauli::kZ}};
    h.terms.push_back(t);
  }
  EXPECT_NEAR(expectation(sv, h), -(n - 1), 1e-12);
}

}  // namespace
}  // namespace qsv
