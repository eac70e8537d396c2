// Cross-backend checks for the SIMD kernel layer (sv/simd/): every compiled
// backend must produce BIT-identical amplitudes to the portable scalar
// reference, for every dense kernel, every target/control position, odd
// tile sizes, and through both engines. Dispatch divergence — a backend
// rounding differently — is a correctness bug, not a tolerance question:
// the distributed engine must agree with the single-node engine no matter
// which node picked which backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "circuit/matrix.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/dist_statevector.hpp"
#include "sv/kernels.hpp"
#include "sv/statevector.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

using simd::Backend;

/// RAII: pins the active backend, restores the previous one on exit.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) : prev_(simd::active_backend()) {
    simd::set_active_backend(b);
  }
  ~BackendGuard() { simd::set_active_backend(prev_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  Backend prev_;
};

std::vector<Backend> supported_backends() {
  std::vector<Backend> v;
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (simd::backend_supported(b)) {
      v.push_back(b);
    }
  }
  return v;
}

/// Bit-pattern equality: distinguishes +0.0 from -0.0 and requires the
/// exact same rounding, which approximate comparisons would hide.
void expect_bitwise_eq(const std::vector<cplx>& got,
                       const std::vector<cplx>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].real()),
              std::bit_cast<std::uint64_t>(want[i].real()))
        << what << ": re[" << i << "] " << got[i] << " vs " << want[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].imag()),
              std::bit_cast<std::uint64_t>(want[i].imag()))
        << what << ": im[" << i << "] " << got[i] << " vs " << want[i];
    if (::testing::Test::HasFailure()) {
      return;  // one mismatch is enough; don't spam 2^n failures
    }
  }
}

/// Applies `c` to the same random state under `b` and under scalar;
/// expects bitwise agreement.
void check_backend_matches_scalar(const Circuit& c, Backend b,
                                  const SweepOptions* sweep = nullptr) {
  StateVector ref(c.num_qubits());
  StateVector alt(c.num_qubits());
  Rng rng_a(42), rng_b(42);
  ref.init_random_state(rng_a);
  alt.init_random_state(rng_b);
  if (sweep != nullptr) {
    ref.set_sweep_options(*sweep);
    alt.set_sweep_options(*sweep);
  }
  {
    BackendGuard g(Backend::kScalar);
    ref.apply(c);
  }
  {
    BackendGuard g(b);
    alt.apply(c);
  }
  expect_bitwise_eq(alt.to_vector(), ref.to_vector(),
                    std::string("backend ") + simd::backend_name(b));
}

/// One gate of every dense-kernel kind at every viable target/control
/// position: matrix1 (dense 1q, with and without controls), matrix2,
/// swap, rz, and the phase family.
Circuit all_positions_circuit(int n) {
  Circuit c(n);
  Rng rng(7);
  for (qubit_t t = 0; t < n; ++t) {
    c.add(make_h(t));
    c.add(make_ry(t, 0.3 + 0.05 * t));
    c.add(make_rz(t, 0.2 + 0.07 * t));
    c.add(make_phase(t, 0.1 + 0.02 * t));
    c.add(make_t_gate(t));
  }
  for (qubit_t ctl = 0; ctl < n; ++ctl) {
    for (qubit_t t = 0; t < n; ++t) {
      if (ctl == t) {
        continue;
      }
      c.add(make_cx(ctl, t));
      c.add(make_cphase(ctl, t, 0.3 + 0.01 * (ctl + t)));
    }
  }
  for (qubit_t a = 0; a < n; ++a) {
    for (qubit_t b_ = a + 1; b_ < n; ++b_) {
      c.add(make_swap(a, b_));
      // Both orders: matrix2's subspace bit 0 is the first target, so (a, b)
      // and (b, a) take different lane/vector layouts.
      c.add(make_unitary2(a, b_, random_unitary2_params(rng)));
      c.add(make_unitary2(b_, a, random_unitary2_params(rng)));
    }
  }
  std::vector<qubit_t> controls;
  std::vector<real_t> angles;
  for (qubit_t q = 1; q < n; ++q) {
    controls.push_back(q);
    angles.push_back(0.01 * q);
  }
  c.add(make_fused_phase(0, controls, angles));
  return c;
}

TEST(SimdDispatch, NamesRoundTrip) {
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    const auto parsed = simd::backend_from_name(simd::backend_name(b));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(simd::backend_from_name("avx9000").has_value());
  EXPECT_FALSE(simd::backend_from_name("").has_value());
}

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::backend_compiled(Backend::kScalar));
  EXPECT_TRUE(simd::backend_supported(Backend::kScalar));
  EXPECT_TRUE(simd::backend_supported(simd::best_backend()));
  EXPECT_TRUE(simd::backend_supported(simd::active_backend()));
}

TEST(SimdDispatch, SetActiveBackendSwitchesTable) {
  const Backend prev = simd::active_backend();
  for (Backend b : supported_backends()) {
    BackendGuard g(b);
    EXPECT_EQ(simd::active_backend(), b);
    EXPECT_STREQ(simd::ops().name, simd::backend_name(b));
    EXPECT_STREQ(simd::active_backend_origin(), "override");
  }
  EXPECT_EQ(simd::active_backend(), prev);
}

TEST(SimdDispatch, OpsForRejectsUnsupported) {
  for (int i = 0; i < simd::kBackendCount; ++i) {
    const auto b = static_cast<Backend>(i);
    if (!simd::backend_supported(b)) {
      EXPECT_THROW(static_cast<void>(simd::ops_for(b)), Error);
      EXPECT_THROW(simd::set_active_backend(b), Error);
    }
  }
}

TEST(SimdBitIdentity, AllKernelsAllPositionsSoa) {
  const Circuit c = all_positions_circuit(9);
  for (Backend b : supported_backends()) {
    check_backend_matches_scalar(c, b);
  }
}

// Registers on both sides of every vector kernel's minimum span: 2 and 4
// amplitudes take the scalar fallbacks, 8 is the smallest span of the AVX2
// matrix1 and the AVX-512 matrix2 (both targets lane bits), 16 the smallest
// of the AVX-512 matrix1 and AVX2 matrix2/swap, and 16/32 the first spans
// where AVX-512 matrix2 groups span two and four vectors.
TEST(SimdBitIdentity, TinyRegisters) {
  for (int n = 1; n <= 6; ++n) {
    const Circuit c = all_positions_circuit(n);
    for (Backend b : supported_backends()) {
      check_backend_matches_scalar(c, b);
    }
  }
}

// Sweep-executor path: odd (tiny, non-vector-multiple) tile sizes force the
// TileView span fast path through every min-size branch, and the tile's
// virtual-rank addressing through the lane-masked phase/rz paths.
TEST(SimdBitIdentity, SweepTilesOddSizes) {
  const Circuit c = all_positions_circuit(8);
  for (int tile_qubits : {1, 2, 3, 5, 7}) {
    SweepOptions o;
    o.enabled = true;
    o.tile_qubits = tile_qubits;
    for (Backend b : supported_backends()) {
      check_backend_matches_scalar(c, b, &o);
    }
  }
}

// The sweep result must also agree bitwise with the non-sweep result under
// a fixed backend (tiles are the same kernels on sub-spans).
TEST(SimdBitIdentity, SweepMatchesGateByGatePerBackend) {
  const Circuit c = build_qft(8);
  for (Backend b : supported_backends()) {
    BackendGuard g(b);
    StateVector plain(8), swept(8);
    Rng ra(3), rb(3);
    plain.init_random_state(ra);
    swept.init_random_state(rb);
    SweepOptions off;
    off.enabled = false;
    plain.set_sweep_options(off);
    SweepOptions on;
    on.enabled = true;
    on.tile_qubits = 4;
    swept.set_sweep_options(on);
    plain.apply(c);
    swept.apply(c);
    expect_bitwise_eq(swept.to_vector(), plain.to_vector(),
                      std::string("sweep vs gate-by-gate under ") +
                          simd::backend_name(b));
  }
}

// Distributed engine: rank slices dispatch through the same table; the
// gathered state must be bitwise identical across backends.
TEST(SimdBitIdentity, DistEngineAcrossBackends) {
  const Circuit c = build_qft(8);
  std::vector<cplx> ref;
  {
    BackendGuard g(Backend::kScalar);
    DistStateVector<SoaStorage> sv(8, /*ranks=*/4);
    sv.apply(c);
    ref = sv.gather().to_vector();
  }
  for (Backend b : supported_backends()) {
    BackendGuard g(b);
    DistStateVector<SoaStorage> sv(8, /*ranks=*/4);
    sv.apply(c);
    expect_bitwise_eq(sv.gather().to_vector(), ref,
                      std::string("dist engine under ") +
                          simd::backend_name(b));
  }
}

/// diag_sums over `slices` consecutive slices of `slice` amplitudes each,
/// through one backend's entry, the chains continued from slice to slice
/// as the readout calls it.
std::vector<real_t> diag_sums_over_slices(Backend b,
                                          const std::vector<real_t>& re,
                                          const std::vector<real_t>& im,
                                          amp_index slice,
                                          const std::vector<amp_index>& masks) {
  std::vector<real_t> acc(masks.size(), 0.0);
  for (amp_index base = 0; base < re.size(); base += slice) {
    simd::ops_for(b).diag_sums(re.data() + base, im.data() + base, slice,
                               base, masks.data(), masks.size(), acc.data());
  }
  return acc;
}

// The diagonal readout: every chain adds +|a_g|^2 or -|a_g|^2 in global
// index order, so every backend's entry gives the scalar entry's doubles,
// and the scalar entry gives the definition's, for every mask count (a
// lone chain, part of one register, whole registers, several groups with
// a ragged last one), for slices smaller and larger than the 64-amplitude
// sign block, and with the chains carried across 1 to 8 slices.
TEST(SimdBitIdentity, DiagSumsEveryBackendEqualsTheDefinition) {
  Rng rng(17);
  for (const amp_index slice : {amp_index{2}, amp_index{32}, amp_index{64},
                                amp_index{1} << 12}) {
    for (const amp_index slices : {amp_index{1}, amp_index{2}, amp_index{8}}) {
      const amp_index n = slice * slices;
      std::vector<real_t> re(n), im(n);
      for (amp_index g = 0; g < n; ++g) {
        re[g] = rng.uniform(-1, 1);
        im[g] = rng.uniform(-1, 1);
      }
      for (const std::size_t count : {1, 2, 3, 8, 9, 16, 17, 24}) {
        std::vector<amp_index> masks(count);
        for (std::size_t k = 0; k < count; ++k) {
          // Single bits and random strings over every bit; with an even
          // count the first is the empty mask (the norm's).
          masks[k] = k == 0 && count % 2 == 0 ? 0
                     : k % 2 == 1
                         ? amp_index{1} << (k % bits::log2_exact(2 * n))
                         : static_cast<amp_index>(rng.uniform() * 2 * n);
        }
        std::vector<real_t> want(count, 0.0);
        for (amp_index g = 0; g < n; ++g) {
          const real_t p = re[g] * re[g] + im[g] * im[g];
          for (std::size_t k = 0; k < count; ++k) {
            want[k] += std::popcount(g & masks[k]) % 2 == 1 ? -p : p;
          }
        }
        for (Backend b : supported_backends()) {
          const std::vector<real_t> got =
              diag_sums_over_slices(b, re, im, slice, masks);
          for (std::size_t k = 0; k < count; ++k) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                      std::bit_cast<std::uint64_t>(want[k]))
                << simd::backend_name(b) << ": mask " << masks[k] << " ("
                << k << " of " << count << "), " << slices << " slices of "
                << slice;
          }
        }
      }
    }
  }
}

/// A slice with get/set only: the gate kernels have no path for it./// A slice with get/set only: the gate kernels have no path for it.
struct GetSetOnly {
  [[nodiscard]] amp_index size() const;
  [[nodiscard]] cplx get(amp_index i) const;
  void set(amp_index i, cplx v);
};

template <class S>
concept AppliesGates = requires(S& s, const Gate& g) {
  kern::apply_gate_slice(s, g, 1, amp_index{0});
};

static_assert(!AppliesGates<GetSetOnly>);
static_assert(AppliesGates<SoaStorage>);
static_assert(simd::SoaSpanAccess<SoaStorage>);

// Correctness anchor (not just self-consistency): every backend against
// the brute-force dense-matrix reference.
TEST(SimdCorrectness, MatchesDenseReference) {
  constexpr int n = 6;
  const Circuit c = all_positions_circuit(n);
  for (Backend b : supported_backends()) {
    BackendGuard g(b);
    StateVector sv(n);
    Rng rng(5);
    sv.init_random_state(rng);
    const std::vector<cplx> want = test::dense_apply(c, sv.to_vector());
    sv.apply(c);
    test::expect_state_eq(sv.to_vector(), want, 1e-9);
  }
}

}  // namespace
}  // namespace qsv
