// SIMD-dispatched span kernels for the hot dense gate paths.
//
// The gate kernels in sv/kernels.hpp take a *slice* that exposes the raw
// contiguous re()/im() arrays of SoaStorage (or a window over them). The
// five dense kernels, and the diagonal readout behind <Z_q> and the norm,
// route through this layer: a table of function pointers (`KernelOps`)
// whose entries are implemented once per backend (portable scalar, AVX2,
// AVX-512) and selected once at startup by CPUID, overridable with the
// QSV_SIMD environment variable.
//
// Contract (see docs/KERNELS.md for the full ABI):
//  * Every backend produces bit-identical amplitudes (and sums) for every
//    entry. The vector kernels mirror the scalar complex-arithmetic
//    operation order exactly, use no FMA, and every backend translation
//    unit is compiled with -ffp-contract=off, so dispatch never changes
//    results.
//  * Spans always cover a power-of-two number of amplitudes (a slice or a
//    sweep tile), so vector main loops never need remainder handling —
//    backends fall back to their scalar path below a minimum span size.
//  * Entries may delegate: a backend only overrides the kernels it
//    vectorises and forwards the rest to another backend's table.
#pragma once

#include <concepts>
#include <cstddef>
#include <optional>
#include <string>

#include "circuit/matrix.hpp"
#include "common/types.hpp"

namespace qsv::simd {

// ---------------------------------------------------------------------------
// Backends and dispatch
// ---------------------------------------------------------------------------

enum class Backend {
  kScalar = 0,  // portable reference (also the non-x86 fallback)
  kAvx2 = 1,    // 256-bit split re/im lanes
  kAvx512 = 2,  // 512-bit; composes AVX2 entries for unvectorised kernels
};
inline constexpr int kBackendCount = 3;

/// Stable lowercase name ("scalar", "avx2", "avx512"); also the accepted
/// QSV_SIMD values.
[[nodiscard]] const char* backend_name(Backend b);

/// Parses a backend name; nullopt for anything unrecognised.
[[nodiscard]] std::optional<Backend> backend_from_name(const std::string& s);

/// True if the backend was compiled into this binary (compiler supported
/// the ISA flags; always true for kScalar).
[[nodiscard]] bool backend_compiled(Backend b);

/// True if the backend is compiled in AND the host CPU supports it.
[[nodiscard]] bool backend_supported(Backend b);

/// The highest-ranked supported backend (avx512 > avx2 > scalar).
[[nodiscard]] Backend best_backend();

/// The backend every kernel dispatches through. Resolved once on first use:
/// QSV_SIMD=scalar|avx2|avx512 pins it (an unsupported or unknown value
/// throws qsv::Error), unset or QSV_SIMD=auto picks best_backend().
[[nodiscard]] Backend active_backend();

/// Where the active backend came from: "env", "auto", or "override".
[[nodiscard]] const char* active_backend_origin();

/// Replaces the active backend (tests and benchmarks; not thread-safe
/// against in-flight kernels). Throws qsv::Error if unsupported.
void set_active_backend(Backend b);

// ---------------------------------------------------------------------------
// Span ABI
// ---------------------------------------------------------------------------

/// Contiguous split-component view: re[i]/im[i] hold amplitude i of the
/// span. `n` is a power of two.
struct SoaSpan {
  real_t* re;
  real_t* im;
  amp_index n;
};

/// Slice types the gate kernels accept: SoaStorage and any view over it
/// (e.g. the sweep executor's TileView). A slice with get/set alone is
/// rejected at compile time, not run on a slow path.
template <class S>
concept SoaSpanAccess = requires(S& s) {
  { s.re() } -> std::convertible_to<real_t*>;
  { s.im() } -> std::convertible_to<real_t*>;
  { s.size() } -> std::convertible_to<amp_index>;
};

template <SoaSpanAccess S>
[[nodiscard]] SoaSpan soa_span(S& s) {
  return {s.re(), s.im(), s.size()};
}

// ---------------------------------------------------------------------------
// Kernel table
// ---------------------------------------------------------------------------

/// One entry per hot dense kernel, and the diagonal readout. Semantics:
///  * matrix1: 2x2 on index pairs differing in bit `target`; pairs whose
///    zero-member fails `ctrl` are untouched.
///  * matrix2: 4x4 on quads over bits `a` (low subspace bit) and `b`;
///    subspace index order is (bit b, bit a); `ctrl` gates the quad base.
///  * swap: exchanges amplitudes across bits `a`/`b`.
///  * phase: multiplies amplitudes with all `mask` bits set by `factor`.
///  * rz: amplitudes matching `ctrl` are multiplied by f1 when bit
///    `target` is set, f0 otherwise.
///  * diag_sums: for each amplitude i of [0, n) in index order, adds
///    (-1)^popcount((base + i) & masks[k]) * (re[i]^2 + im[i]^2) to acc[k]
///    for every k < count. n is a power of two and base a multiple of
///    n, so calling it on consecutive slices continues every sum in global
///    index order: acc[k] is then the same double as a one-mask pass over
///    the whole register.
struct KernelOps {
  const char* name;
  void (*matrix1_soa)(const SoaSpan&, int target, const Mat2&, amp_index ctrl);
  void (*matrix2_soa)(const SoaSpan&, int a, int b, const Mat4&,
                      amp_index ctrl);
  void (*swap_soa)(const SoaSpan&, int a, int b);
  void (*phase_soa)(const SoaSpan&, amp_index mask, cplx factor);
  void (*rz_soa)(const SoaSpan&, int target, cplx f0, cplx f1,
                 amp_index ctrl);
  void (*diag_sums)(const real_t* re, const real_t* im, amp_index n,
                    amp_index base, const amp_index* masks,
                    std::size_t count, real_t* acc);
};

/// Table of a specific backend (must be supported).
[[nodiscard]] const KernelOps& ops_for(Backend b);

/// Table of the active backend — what the gate kernels call.
[[nodiscard]] const KernelOps& ops();

}  // namespace qsv::simd
