// SIMD-dispatched span kernels for the hot dense gate paths.
//
// The gate kernels in sv/kernels.hpp take a *slice* that exposes raw
// contiguous storage — the SoA re()/im() arrays or the AoS data() array.
// The five dense kernels on the SoA layout route through this layer: a
// table of function pointers (`KernelOps`) whose entries are implemented
// once per backend (portable scalar, AVX2, AVX-512) and selected once at
// startup by CPUID, overridable with the QSV_SIMD environment variable.
// Their AoS forms are scalar in every backend (split re/im lanes do not fit
// interleaved storage) and are called directly.
//
// Contract (see docs/KERNELS.md for the full ABI):
//  * Every backend produces bit-identical amplitudes for every entry. The
//    vector kernels mirror the scalar complex-arithmetic operation order
//    exactly, use no FMA, and every backend translation unit is compiled
//    with -ffp-contract=off, so dispatch never changes results.
//  * Spans always cover a power-of-two number of amplitudes (a slice or a
//    sweep tile), so vector main loops never need remainder handling —
//    backends fall back to their scalar path below a minimum span size.
//  * Entries may delegate: a backend only overrides the kernels it
//    vectorises and forwards the rest to another backend's table.
#pragma once

#include <concepts>
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

/// Contiguous interleaved view: amp[i] is amplitude i. `n` is a power of
/// two.
struct AosSpan {
  cplx* amp;
  amp_index n;
};

/// Slice types that can hand out a SoaSpan (SoaStorage and any view over
/// it, e.g. the sweep executor's TileView).
template <class S>
concept SoaSpanAccess = requires(S& s) {
  { s.re() } -> std::convertible_to<real_t*>;
  { s.im() } -> std::convertible_to<real_t*>;
  { s.size() } -> std::convertible_to<amp_index>;
};

/// Slice types that can hand out an AosSpan.
template <class S>
concept AosSpanAccess = requires(S& s) {
  { s.data() } -> std::convertible_to<cplx*>;
  { s.size() } -> std::convertible_to<amp_index>;
};

/// Slice types the gate kernels accept: either span form. A slice with
/// get/set alone is rejected at compile time, not run on a slow path.
template <class S>
concept SpanAccess = SoaSpanAccess<S> || AosSpanAccess<S>;

template <SoaSpanAccess S>
[[nodiscard]] SoaSpan soa_span(S& s) {
  return {s.re(), s.im(), s.size()};
}

template <AosSpanAccess S>
[[nodiscard]] AosSpan aos_span(S& s) {
  return {s.data(), s.size()};
}

// ---------------------------------------------------------------------------
// Kernel table
// ---------------------------------------------------------------------------

/// One entry per hot dense kernel on the SoA layout. Semantics (the AoS
/// functions below have the same ones):
///  * matrix1: 2x2 on index pairs differing in bit `target`; pairs whose
///    zero-member fails `ctrl` are untouched.
///  * matrix2: 4x4 on quads over bits `a` (low subspace bit) and `b`;
///    subspace index order is (bit b, bit a); `ctrl` gates the quad base.
///  * swap: exchanges amplitudes across bits `a`/`b`.
///  * phase: multiplies amplitudes with all `mask` bits set by `factor`.
///  * rz: amplitudes matching `ctrl` are multiplied by f1 when bit
///    `target` is set, f0 otherwise.
struct KernelOps {
  const char* name;
  void (*matrix1_soa)(const SoaSpan&, int target, const Mat2&, amp_index ctrl);
  void (*matrix2_soa)(const SoaSpan&, int a, int b, const Mat4&,
                      amp_index ctrl);
  void (*swap_soa)(const SoaSpan&, int a, int b);
  void (*phase_soa)(const SoaSpan&, amp_index mask, cplx factor);
  void (*rz_soa)(const SoaSpan&, int target, cplx f0, cplx f1,
                 amp_index ctrl);
};

/// Table of a specific backend (must be supported).
[[nodiscard]] const KernelOps& ops_for(Backend b);

/// Table of the active backend — what the gate kernels call.
[[nodiscard]] const KernelOps& ops();

// ---------------------------------------------------------------------------
// AoS kernels (scalar reference code, the same under every backend)
// ---------------------------------------------------------------------------

void matrix1_aos(const AosSpan&, int target, const Mat2&, amp_index ctrl);
void matrix2_aos(const AosSpan&, int a, int b, const Mat4&, amp_index ctrl);
void swap_aos(const AosSpan&, int a, int b);
void phase_aos(const AosSpan&, amp_index mask, cplx factor);
void rz_aos(const AosSpan&, int target, cplx f0, cplx f1, amp_index ctrl);

}  // namespace qsv::simd
