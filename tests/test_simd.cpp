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
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
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

/// One component for the kernel-definition tests: uniform in (-1, 1) or,
/// with probability `zeros`, +0 or -0. Signed zeros are where a chain that
/// started from its first product instead of +0 would show: an output whose
/// products are all -0 sums to -0 from its first product and to +0 from +0.
real_t draw(Rng& rng, double zeros) {
  if (rng.uniform() < zeros) {
    return rng.uniform() < 0.5 ? 0.0 : -0.0;
  }
  return rng.uniform(-1, 1);
}

/// A register's components, as a kernel's span sees them.
struct Amps {
  std::vector<real_t> re, im;

  [[nodiscard]] simd::SoaSpan span() {
    return {re.data(), im.data(), re.size()};
  }
  /// The same amplitudes as complex numbers, for expect_bitwise_eq.
  [[nodiscard]] std::vector<cplx> amplitudes() const {
    std::vector<cplx> v;
    for (std::size_t i = 0; i < re.size(); ++i) {
      v.emplace_back(re[i], im[i]);
    }
    return v;
  }
};

Amps draw_amps(Rng& rng, amp_index n, double zeros) {
  Amps a{std::vector<real_t>(n), std::vector<real_t>(n)};
  for (amp_index i = 0; i < n; ++i) {
    a.re[i] = draw(rng, zeros);
    a.im[i] = draw(rng, zeros);
  }
  return a;
}

template <class M>
M draw_matrix(Rng& rng, double zeros) {
  M u;
  for (auto& row : u.m) {
    for (cplx& e : row) {
      const real_t re = draw(rng, zeros);
      e = cplx(re, draw(rng, zeros));
    }
  }
  return u;
}

/// Control masks for a kernel on `n` qubits whose targets are `busy`: none,
/// each free bit alone, and every free bit.
std::vector<amp_index> control_masks(int n, amp_index busy) {
  std::vector<amp_index> masks = {0};
  const amp_index free = ((amp_index{1} << n) - 1) & ~busy;
  for (int q = 0; q < n; ++q) {
    if (bits::bit(free, q) != 0) {
      masks.push_back(amp_index{1} << q);
    }
  }
  if (std::popcount(free) > 1) {
    masks.push_back(free);
  }
  return masks;
}

/// matrix2 as its chain defines it: on every quad whose base holds the
/// control bits, each output starts from +0 and takes the columns in
/// subspace order (bit b, bit a) as re = fma(-ui, xi, fma(ur, xr, re)),
/// im = fma(ui, xr, fma(ur, xi, im)).
void matrix2_definition(Amps& s, int a, int b, const Mat4& u,
                        amp_index ctrl) {
  for (amp_index base = 0; base < s.re.size(); ++base) {
    if (bits::bit(base, a) != 0 || bits::bit(base, b) != 0 ||
        !bits::all_set(base, ctrl)) {
      continue;
    }
    amp_index idx[4];
    real_t xr[4], xi[4];
    for (int sub = 0; sub < 4; ++sub) {
      idx[sub] = base | (sub & 1 ? amp_index{1} << a : 0) |
                 (sub & 2 ? amp_index{1} << b : 0);
      xr[sub] = s.re[idx[sub]];
      xi[sub] = s.im[idx[sub]];
    }
    for (int row = 0; row < 4; ++row) {
      real_t re = +0.0, im = +0.0;
      for (int col = 0; col < 4; ++col) {
        const real_t ur = u.m[row][col].real(), ui = u.m[row][col].imag();
        re = std::fma(-ui, xi[col], std::fma(ur, xr[col], re));
        im = std::fma(ui, xr[col], std::fma(ur, xi[col], im));
      }
      s.re[idx[row]] = re;
      s.im[idx[row]] = im;
    }
  }
}

// Every compiled backend's matrix2, and each build of the scalar entry
// this CPU can run, equals the chain's definition bit for bit: every
// ordered target pair on 2 to 9 qubits (spans 4 to 512, so every minimum
// span, lane-bit and vector-bit layout and scalar fallback), with and
// without controls, on dense amplitudes, on amplitudes half of them signed
// zeros, and on signed zeros alone.
TEST(SimdBitIdentity, Matrix2EveryBuildIsTheFmaChain) {
  using Matrix2Fn = decltype(simd::KernelOps::matrix2_soa);
  std::vector<std::pair<std::string, Matrix2Fn>> entries;
  for (Backend b : supported_backends()) {
    entries.emplace_back(std::string(simd::backend_name(b)) + " table",
                         simd::ops_for(b).matrix2_soa);
  }
  for (const simd::Matrix2Build& build : simd::scalar_matrix2_builds()) {
    entries.emplace_back(std::string("scalar ") + build.name + " build",
                         build.fn);
  }
  Rng rng(23);
  for (int n = 2; n <= 9; ++n) {
    for (const double zeros : {0.0, 0.5, 1.0}) {
      const Amps in = draw_amps(rng, amp_index{1} << n, zeros);
      const auto u = draw_matrix<Mat4>(rng, zeros == 0.5 ? 0.25 : 0.0);
      for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
          if (a == b) {
            continue;
          }
          const amp_index busy = (amp_index{1} << a) | (amp_index{1} << b);
          for (const amp_index ctrl : control_masks(n, busy)) {
            Amps want = in;
            matrix2_definition(want, a, b, u, ctrl);
            for (const auto& [name, fn] : entries) {
              Amps got = in;
              fn(got.span(), a, b, u, ctrl);
              expect_bitwise_eq(got.amplitudes(), want.amplitudes(),
                                name + ", (a, b) = (" + std::to_string(a) +
                                    ", " + std::to_string(b) + ") ctrl " +
                                    std::to_string(ctrl) + " on " +
                                    std::to_string(n) + " qubits, zeros " +
                                    std::to_string(zeros));
            }
          }
        }
      }
    }
  }
}

/// Applies `def(value, i)` to every amplitude i of `s` as a std::complex,
/// the definition of the unfused kernels: multiply, then add, in
/// std::complex order.
template <class Def>
void for_each_complex(Amps& s, Def def) {
  for (amp_index i = 0; i < s.re.size(); ++i) {
    const cplx v = def(cplx(s.re[i], s.im[i]), i);
    s.re[i] = v.real();
    s.im[i] = v.imag();
  }
}

// matrix1, swap, phase and rz on every backend, and the distributed matrix1
// combine, keep their unfused arithmetic: each equals its definition in
// std::complex arithmetic (built, like every kernel, without contraction)
// bit for bit, for every target and control position on 1 to 9 qubits.
// Only matrix2 fuses.
TEST(SimdBitIdentity, UnfusedKernelsEqualTheirDefinitions) {
  Rng rng(29);
  for (int n = 1; n <= 9; ++n) {
    const amp_index size = amp_index{1} << n;
    for (const double zeros : {0.0, 0.5}) {
      const Amps in = draw_amps(rng, size, zeros);
      const auto u = draw_matrix<Mat2>(rng, zeros / 2);
      const cplx f0(draw(rng, 0), draw(rng, 0));
      const cplx f1(draw(rng, 0), draw(rng, 0));
      const auto check = [&](const Amps& want, const std::string& what,
                             const auto& apply) {
        for (Backend b : supported_backends()) {
          Amps got = in;
          apply(simd::ops_for(b), got.span());
          expect_bitwise_eq(got.amplitudes(), want.amplitudes(),
                            std::string(simd::backend_name(b)) + " " + what +
                                " on " + std::to_string(n) + " qubits");
        }
      };
      for (int t = 0; t < n; ++t) {
        const amp_index tbit = amp_index{1} << t;
        for (const amp_index ctrl : control_masks(n, tbit)) {
          const std::string at =
              "t " + std::to_string(t) + " ctrl " + std::to_string(ctrl);
          Amps want = in;
          for (amp_index i0 = 0; i0 < size; ++i0) {
            if ((i0 & tbit) != 0 || !bits::all_set(i0, ctrl)) {
              continue;
            }
            const cplx a0(in.re[i0], in.im[i0]);
            const cplx a1(in.re[i0 | tbit], in.im[i0 | tbit]);
            const cplx n0 = u.m[0][0] * a0 + u.m[0][1] * a1;
            const cplx n1 = u.m[1][0] * a0 + u.m[1][1] * a1;
            want.re[i0] = n0.real();
            want.im[i0] = n0.imag();
            want.re[i0 | tbit] = n1.real();
            want.im[i0 | tbit] = n1.imag();
          }
          check(want, "matrix1 " + at,
                [&](const simd::KernelOps& ops, const simd::SoaSpan& s) {
                  ops.matrix1_soa(s, t, u, ctrl);
                });
          want = in;
          for_each_complex(want, [&](cplx v, amp_index i) {
            return bits::all_set(i, ctrl) ? v * ((i & tbit) != 0 ? f1 : f0)
                                          : v;
          });
          check(want, "rz " + at,
                [&](const simd::KernelOps& ops, const simd::SoaSpan& s) {
                  ops.rz_soa(s, t, f0, f1, ctrl);
                });
        }
      }
      for (const amp_index mask : control_masks(n, 0)) {
        Amps want = in;
        for_each_complex(want, [&](cplx v, amp_index i) {
          return bits::all_set(i, mask) ? v * f0 : v;
        });
        check(want, "phase mask " + std::to_string(mask),
              [&](const simd::KernelOps& ops, const simd::SoaSpan& s) {
                ops.phase_soa(s, mask, f0);
              });
      }
      for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b) {
          if (a == b) {
            continue;
          }
          const amp_index flip = (amp_index{1} << a) | (amp_index{1} << b);
          Amps want = in;
          for (amp_index i = 0; i < size; ++i) {
            if (bits::bit(i, a) != bits::bit(i, b)) {
              want.re[i] = in.re[i ^ flip];
              want.im[i] = in.im[i ^ flip];
            }
          }
          check(want,
                "swap (" + std::to_string(a) + ", " + std::to_string(b) + ")",
                [&](const simd::KernelOps& ops, const simd::SoaSpan& s) {
                  ops.swap_soa(s, a, b);
                });
        }
      }
      // The combine: my amplitudes against a peer message that covers the
      // whole slice, or only its middle half, over the whole slice or a
      // region inside it.
      const Amps peer = draw_amps(rng, size, zeros);
      for (const amp_index ctrl : control_masks(n, 0)) {
        for (int my_row = 0; my_row < 2; ++my_row) {
          for (const bool part : {false, true}) {
            const amp_index pfirst = part ? size / 4 : 0;
            const amp_index pcount = part ? size / 2 : size;
            const amp_index first = part ? size / 8 : 0;
            const amp_index count = part ? size - size / 4 : size;
            const kern::PeerSpan span{peer.re.data(), peer.im.data(), pfirst,
                                      pcount};
            SoaStorage mine(size);
            std::copy(in.re.begin(), in.re.end(), mine.re());
            std::copy(in.im.begin(), in.im.end(), mine.im());
            kern::combine_matrix1_range(mine, span, my_row, u, ctrl, first,
                                        count);
            Amps want = in;
            for_each_complex(want, [&](cplx v, amp_index k) {
              const bool held = k >= std::max(first, pfirst) &&
                                k < std::min(first + count, pfirst + pcount);
              if (!held || !bits::all_set(k, ctrl)) {
                return v;
              }
              // The message's first amplitude is the stream's pfirst.
              const cplx p(peer.re[k - pfirst], peer.im[k - pfirst]);
              return u.m[my_row][my_row] * v + u.m[my_row][1 - my_row] * p;
            });
            Amps got{std::vector<real_t>(mine.re(), mine.re() + size),
                     std::vector<real_t>(mine.im(), mine.im() + size)};
            expect_bitwise_eq(got.amplitudes(), want.amplitudes(),
                              "combine_matrix1_range row " +
                                  std::to_string(my_row) + " ctrl " +
                                  std::to_string(ctrl) +
                                  (part ? " part" : "") + " on " +
                                  std::to_string(n) + " qubits");
          }
        }
      }
    }
  }
}

/// A slice with get/set only: the gate kernels have no path for it.
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
