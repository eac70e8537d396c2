// Gate application kernels over a slice of SoA amplitude storage.
//
// All gate semantics live here, in exactly one place: the single-address-
// space StateVector calls apply_gate_slice with rank_bits = 0 and
// local_qubits = n; the distributed engine calls the same function on each
// rank's slice (rank_bits = rank id) for local gates, and the
// combine_* kernels after an exchange for distributed gates.
//
// Index convention: global amplitude index = (rank_bits << local_qubits) |
// local index; bit q of the global index is the basis value of qubit q.
//
// A slice must expose its raw re()/im() arrays (simd::SoaSpanAccess). The
// hot dense kernels (matrix1/matrix2/swap/phase/rz) run on those spans
// through the runtime-selected SIMD backend table. Backends are
// bit-identical, so the routing never changes results (docs/KERNELS.md).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>
#include <utility>

#include "circuit/gate.hpp"
#include "circuit/locality.hpp"
#include "circuit/matrix.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sv/simd/simd.hpp"
#include "sv/storage.hpp"

namespace qsv::kern {

/// Splits a control-qubit list into a local-bit mask and a high-bit mask
/// (bits numbered from 0 within the rank id).
struct SplitMask {
  amp_index local = 0;
  amp_index high = 0;
};

[[nodiscard]] inline SplitMask split_controls(const std::vector<qubit_t>& controls,
                                              int local_qubits) {
  SplitMask m;
  for (qubit_t c : controls) {
    if (c < local_qubits) {
      m.local = bits::set_bit(m.local, c);
    } else {
      m.high = bits::set_bit(m.high, c - local_qubits);
    }
  }
  return m;
}

/// Applies a 2x2 matrix to a local target with an optional local control
/// mask. High controls must already be satisfied (caller's responsibility).
template <simd::SoaSpanAccess S>
void apply_matrix1(S& s, int target, const Mat2& u, amp_index local_ctrl_mask) {
  simd::ops().matrix1_soa(simd::soa_span(s), target, u, local_ctrl_mask);
}

/// Applies a 4x4 matrix to two local targets (a = low subspace bit, b =
/// high subspace bit) with an optional local control mask.
template <simd::SoaSpanAccess S>
void apply_matrix2(S& s, int a, int b, const Mat4& u,
                   amp_index local_ctrl_mask) {
  QSV_REQUIRE(a != b, "unitary2 targets must differ");
  simd::ops().matrix2_soa(simd::soa_span(s), a, b, u, local_ctrl_mask);
}

/// SWAP of two local qubits.
template <simd::SoaSpanAccess S>
void apply_swap_local(S& s, int a, int b) {
  QSV_REQUIRE(a != b, "swap targets must differ");
  simd::ops().swap_soa(simd::soa_span(s), a, b);
}

/// Multiplies every amplitude whose global index has all bits of `mask` set
/// by `factor`. `mask` may include high bits; the caller passes the global
/// mask and the slice's rank_bits.
template <simd::SoaSpanAccess S>
void apply_phase_mask(S& s, amp_index global_mask, cplx factor,
                      int local_qubits, amp_index rank_bits) {
  const amp_index high_mask = global_mask >> local_qubits;
  if (!bits::all_set(rank_bits, high_mask)) {
    return;  // this slice fails the high-bit part of the mask
  }
  const amp_index local_mask =
      global_mask & ((amp_index{1} << local_qubits) - 1);
  simd::ops().phase_soa(simd::soa_span(s), local_mask, factor);
}

/// Rz: phases both halves of the target (no control support needed beyond
/// the mask, which gates the whole update).
template <simd::SoaSpanAccess S>
void apply_rz(S& s, int target_global, real_t theta, amp_index ctrl_global,
              int local_qubits, amp_index rank_bits) {
  const cplx f0 = std::polar<real_t>(1, -theta / 2);
  const cplx f1 = std::polar<real_t>(1, theta / 2);
  const amp_index high_ctrl = ctrl_global >> local_qubits;
  if (!bits::all_set(rank_bits, high_ctrl)) {
    return;
  }
  const amp_index local_ctrl =
      ctrl_global & ((amp_index{1} << local_qubits) - 1);

  // The target may itself be a high bit: the whole slice is then one half
  // and the update degenerates to a mask-gated uniform phase.
  if (target_global >= local_qubits) {
    const cplx f =
        bits::bit(rank_bits, target_global - local_qubits) ? f1 : f0;
    simd::ops().phase_soa(simd::soa_span(s), local_ctrl, f);
    return;
  }

  simd::ops().rz_soa(simd::soa_span(s), target_global, f0, f1, local_ctrl);
}

/// QuEST-style fused controlled-phase layer: for amplitudes with the target
/// bit set, the phase is the sum of the angles of every control bit that is
/// also set. One pass over the slice regardless of the control count.
template <class S>
void apply_fused_phase(S& s, const Gate& g, int local_qubits,
                       amp_index rank_bits) {
  const qubit_t t = g.targets[0];

  // Phase contributed by high controls is constant across the slice.
  real_t high_phase = 0;
  amp_index local_ctrl_bits = 0;
  std::vector<std::pair<int, real_t>> local_ctrls;
  for (std::size_t ci = 0; ci < g.controls.size(); ++ci) {
    const qubit_t c = g.controls[ci];
    if (c >= local_qubits) {
      if (bits::bit(rank_bits, c - local_qubits)) {
        high_phase += g.params[ci];
      }
    } else {
      local_ctrls.emplace_back(c, g.params[ci]);
      local_ctrl_bits = bits::set_bit(local_ctrl_bits, c);
    }
  }

  const bool target_high = t >= local_qubits;
  if (target_high && bits::bit(rank_bits, t - local_qubits) == 0) {
    return;  // target bit is 0 across the whole slice: identity
  }

  const std::span<const std::pair<int, real_t>> ctrls(local_ctrls);
  parallel_for(s.size(), static_cast<std::int64_t>(s.size()),
               [=, &s](std::int64_t ii) {
                 const amp_index i = static_cast<amp_index>(ii);
                 if (!target_high && bits::bit(i, t) == 0) {
                   return;
                 }
                 real_t phase = high_phase;
                 for (const auto& [c, theta] : ctrls) {
                   if (bits::bit(i, c)) {
                     phase += theta;
                   }
                 }
                 if (phase != 0) {
                   s.set(i, s.get(i) * std::polar<real_t>(1, phase));
                 }
               });
}

/// Applies any gate that is not distributed for this decomposition.
/// Handles local-memory pair updates, all diagonal gates (including those
/// whose operands live in the rank bits) and local SWAPs.
template <simd::SoaSpanAccess S>
void apply_gate_slice(S& s, const Gate& g, int local_qubits,
                      amp_index rank_bits) {
  QSV_REQUIRE(classify_gate(g, local_qubits) != GateLocality::kDistributed,
              "apply_gate_slice cannot apply a distributed gate: " + g.str());

  switch (g.kind) {
    case GateKind::kSwap:
      apply_swap_local(s, g.targets[0], g.targets[1]);
      return;

    case GateKind::kUnitary2: {
      const SplitMask cm = split_controls(g.controls, local_qubits);
      if (!bits::all_set(rank_bits, cm.high)) {
        return;
      }
      apply_matrix2(s, g.targets[0], g.targets[1], gate_matrix4(g), cm.local);
      return;
    }

    case GateKind::kRz: {
      amp_index ctrl = 0;
      for (qubit_t c : g.controls) {
        ctrl = bits::set_bit(ctrl, c);
      }
      apply_rz(s, g.targets[0], g.params[0], ctrl, local_qubits, rank_bits);
      return;
    }

    case GateKind::kFusedPhase:
      apply_fused_phase(s, g, local_qubits, rank_bits);
      return;

    case GateKind::kZ:
    case GateKind::kS:
    case GateKind::kT:
    case GateKind::kPhase:
    case GateKind::kCz:
    case GateKind::kCPhase: {
      // Single multiplicative factor on amplitudes where target and all
      // control bits are 1.
      cplx factor;
      switch (g.kind) {
        case GateKind::kZ:
        case GateKind::kCz:
          factor = -1;
          break;
        case GateKind::kS:
          factor = cplx{0, 1};
          break;
        case GateKind::kT:
          factor = std::polar<real_t>(1, std::numbers::pi_v<real_t> / 4);
          break;
        default:
          factor = std::polar<real_t>(1, g.params[0]);
          break;
      }
      amp_index mask = 0;
      for (qubit_t t : g.targets) {
        mask = bits::set_bit(mask, t);
      }
      for (qubit_t c : g.controls) {
        mask = bits::set_bit(mask, c);
      }
      apply_phase_mask(s, mask, factor, local_qubits, rank_bits);
      return;
    }

    default: {
      // Non-diagonal single-target gate: target must be local; high controls
      // decide participation at slice level.
      const SplitMask cm = split_controls(g.controls, local_qubits);
      if (!bits::all_set(rank_bits, cm.high)) {
        return;
      }
      apply_matrix1(s, g.targets[0], gate_matrix2(g), cm.local);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Distributed combine kernels (used by the distributed engine after the
// pairwise exchange). The peer's amplitudes are never copied into a buffer
// of this rank's: the kernels read them in place from the verified message
// that carried them, as a PeerSpan.
// ---------------------------------------------------------------------------

/// Peer amplitudes [first, first + count) of an exchange stream, read in
/// place from one message: `count` real parts, then `count` imaginary parts
/// (the layout SoaStorage::pack and gather_half write).
struct PeerSpan {
  const real_t* re = nullptr;
  const real_t* im = nullptr;
  amp_index first = 0;
  amp_index count = 0;

  [[nodiscard]] amp_index end() const { return first + count; }
};

/// Views a payload of whole amplitudes as the stream's amplitudes from
/// `first` on. The payload's reals were written as reals (a pack or a
/// gather copies them in), so they are read back through real_t pointers.
[[nodiscard]] inline PeerSpan peer_span(std::span<const std::byte> payload,
                                        amp_index first) {
  const amp_index count = payload.size() / kBytesPerAmp;
  const auto* re = reinterpret_cast<const real_t*>(payload.data());
  return {re, re + count, first, count};
}

/// Distributed single-target gate: this rank holds the `my_row` components
/// (my_row = my rank's bit of the target). After receiving the peer slice:
/// new[i] = u[my_row][my_row]*mine[i] + u[my_row][1-my_row]*theirs[i].
/// `local_ctrl_mask` gates per-amplitude updates (high controls are decided
/// before the exchange).
///
/// The combine kernels update amplitudes [first, first + count) only — the
/// exchange applies them region by region as payloads arrive. Each reads
/// only the peer amplitudes `peer` holds: an elementwise kernel updates the
/// part of the region that `peer` covers, so a region spread over several
/// messages takes one call per message. Each amplitude's update is
/// independent, so region-at-a-time application is bitwise identical to
/// one pass over (0, size).
///
/// The complex products are written out in std::complex's order, re =
/// (dr*ar - di*ai) + (or*br - oi*bi) and im = (dr*ai + di*ar) + (or*bi +
/// oi*br), which gives the bits the std::complex form gave on finite
/// amplitudes, in a loop the compiler vectorises. The translation units
/// that instantiate these kernels are compiled without FP contraction
/// (docs/KERNELS.md), so no build fuses them into multiply-adds.
template <simd::SoaSpanAccess S>
void combine_matrix1_range(S& mine, const PeerSpan& peer, int my_row,
                           const Mat2& u, amp_index local_ctrl_mask,
                           amp_index first, amp_index count) {
  QSV_REQUIRE(first + count <= mine.size(), "combine region out of range");
  const amp_index lo = std::max(first, peer.first);
  const amp_index hi = std::min(first + count, peer.end());
  if (lo >= hi) {
    return;
  }
  const real_t dr = u.m[my_row][my_row].real();
  const real_t di = u.m[my_row][my_row].imag();
  const real_t orr = u.m[my_row][1 - my_row].real();
  const real_t oi = u.m[my_row][1 - my_row].imag();
  real_t* const mre = mine.re() + lo;
  real_t* const mim = mine.im() + lo;
  const real_t* const pre = peer.re + (lo - peer.first);
  const real_t* const pim = peer.im + (lo - peer.first);
  const amp_index n = hi - lo;
  const auto mix = [=](amp_index k) {
    const real_t ar = mre[k];
    const real_t ai = mim[k];
    const real_t br = pre[k];
    const real_t bi = pim[k];
    mre[k] = (dr * ar - di * ai) + (orr * br - oi * bi);
    mim[k] = (dr * ai + di * ar) + (orr * bi + oi * br);
  };
  if (local_ctrl_mask == 0) {
    parallel_for(n, static_cast<std::int64_t>(n),
                 [=](std::int64_t k) { mix(static_cast<amp_index>(k)); });
    return;
  }
  parallel_for(n, static_cast<std::int64_t>(n), [=](std::int64_t k) {
    if (bits::all_set(lo + static_cast<amp_index>(k), local_ctrl_mask)) {
      mix(static_cast<amp_index>(k));
    }
  });
}

// ---------------------------------------------------------------------------
// Half copies. A distributed SWAP with local target `a` moves one half of
// each slice: the amplitudes whose bit `a` equals a given value. Packed
// index k of a half names its k-th amplitude in increasing index order,
// insert_zero_bit(k, a) | value << a, so each run of 2^a consecutive packed
// indices is a run of contiguous amplitudes, and an amplitude's partner
// across bit `a` has the same packed index in the other half.
// ---------------------------------------------------------------------------

/// Packed indices per piece of a half copy's loop. Pieces, not runs, are
/// the loop's iterations: a run is one amplitude when a = 0.
inline constexpr amp_index kHalfCopyPiece = 1024;

/// The number of amplitudes below index `i` whose bit `a` equals `value`:
/// the packed index of the first such amplitude at or above i.
[[nodiscard]] constexpr amp_index packed_below(amp_index i, int a,
                                               int value) {
  const amp_index half = amp_index{1} << a;
  const amp_index in_block = i & (2 * half - 1);
  const amp_index below = value != 0
                              ? (in_block > half ? in_block - half : 0)
                              : std::min(in_block, half);
  return ((i >> (a + 1)) << a) + below;
}

/// Calls copy(k, i, n) for runs of packed indices [k, k + n) within
/// [lo, hi) of the half whose bit `a` equals `value`, whose amplitudes are
/// contiguous from index i; the loop covers `amps` amplitudes. The range is
/// split into pieces of kHalfCopyPiece packed indices across the calling
/// thread's loop team. A piece walks the runs it meets and clips them only
/// at its own ends; below 2^3-amplitude runs (a < 3) it passes one
/// amplitude at a time (n = 1), so the copy is a plain strided loop.
template <class CopyRun>
void for_each_half_run(amp_index amps, amp_index lo, amp_index hi, int a,
                       int value, CopyRun copy) {
  if (lo >= hi) {
    return;
  }
  const amp_index set = static_cast<amp_index>(value) << a;
  const amp_index pieces = (hi - lo + kHalfCopyPiece - 1) / kHalfCopyPiece;
  parallel_for(amps, static_cast<std::int64_t>(pieces), [=](std::int64_t p) {
    const amp_index k_lo = lo + static_cast<amp_index>(p) * kHalfCopyPiece;
    const amp_index k_hi = std::min(hi, k_lo + kHalfCopyPiece);
    if (a < 3) {
      for (amp_index k = k_lo; k < k_hi; ++k) {
        copy(k, bits::insert_zero_bit(k, a) | set, amp_index{1});
      }
      return;
    }
    for (amp_index k = k_lo; k < k_hi;) {
      const amp_index run_end = std::min(k_hi, ((k >> a) + 1) << a);
      copy(k, bits::insert_zero_bit(k, a) | set, run_end - k);
      k = run_end;
    }
  });
}

/// Distributed SWAP with one local target `a` and the distributed target in
/// the rank bits: amplitudes whose local bit `a` differs from this rank's
/// bit of the distributed target are replaced from the peer slice. An
/// amplitude i of [first, first + count) reads theirs[flip_bit(i, a)],
/// which may lie outside the region and in another message: this call
/// updates the amplitudes whose partner `peer` holds. Every partner a
/// region reads lies in the 2^(a+1)-aligned blocks that the region
/// overlaps, which is why the frontier driver holds application back to
/// that alignment (sv/sweep.hpp).
///
/// The written amplitudes form one half and their partners the other, at
/// the same packed indices, so the update is a half copy over the packed
/// indices whose amplitude lies in the region and whose partner in `peer`.
template <simd::SoaSpanAccess S>
void combine_swap_one_high_range(S& mine, const PeerSpan& peer, int a,
                                 int my_high_bit, amp_index first,
                                 amp_index count) {
  QSV_REQUIRE(first + count <= mine.size(), "combine region out of range");
  const int written = 1 - my_high_bit;
  const amp_index lo = std::max(packed_below(first, a, written),
                                packed_below(peer.first, a, my_high_bit));
  const amp_index hi = std::min(packed_below(first + count, a, written),
                                packed_below(peer.end(), a, my_high_bit));
  if (lo >= hi) {
    return;
  }
  const amp_index half = amp_index{1} << a;
  real_t* const mre = mine.re();
  real_t* const mim = mine.im();
  const PeerSpan p = peer;
  // The loop spans both halves of the blocks it writes into.
  for_each_half_run(2 * (hi - lo), lo, hi, a, written,
                    [=](amp_index, amp_index i, amp_index n) {
    std::copy_n(p.re + ((i ^ half) - p.first), n, mre + i);
    std::copy_n(p.im + ((i ^ half) - p.first), n, mim + i);
  });
}

/// Distributed SWAP with both targets in the rank bits: the slices are
/// exchanged wholesale (pure relabelling). Copies the part of the region
/// that `peer` covers.
template <simd::SoaSpanAccess S>
void combine_swap_two_high_range(S& mine, const PeerSpan& peer,
                                 amp_index first, amp_index count) {
  QSV_REQUIRE(first + count <= mine.size(), "combine region out of range");
  const amp_index lo = std::max(first, peer.first);
  const amp_index hi = std::min(first + count, peer.end());
  if (lo >= hi) {
    return;
  }
  const std::size_t bytes = (hi - lo) * sizeof(real_t);
  parallel_copy(hi - lo,
                {{mine.re() + lo, peer.re + (lo - peer.first), bytes},
                 {mine.im() + lo, peer.im + (lo - peer.first), bytes}});
}

// ---------------------------------------------------------------------------
// Half-exchange helpers (the paper's future-work optimisation): only the
// half of the slice whose bit `a` equals `value` moves, as packed indices.
// ---------------------------------------------------------------------------

/// Writes packed amplitudes [first, first + count) of `src`'s half into a
/// message payload at `out`: `count` real parts, then `count` imaginary
/// parts — the half exchange's send, gathered straight from the slice.
template <simd::SoaSpanAccess S>
void gather_half(const S& src, int a, int value, amp_index first,
                 amp_index count, std::byte* out) {
  QSV_REQUIRE(first + count <= src.size() / 2, "gather region out of range");
  real_t* const ore = reinterpret_cast<real_t*>(out);
  real_t* const oim = ore + count;
  const real_t* const sre = src.re();
  const real_t* const sim = src.im();
  for_each_half_run(count, first, first + count, a, value,
                    [=](amp_index k, amp_index i, amp_index n) {
    std::copy_n(sre + i, n, ore + (k - first));
    std::copy_n(sim + i, n, oim + (k - first));
  });
}

/// Inverse of gather_half over packed indices [first, first + count):
/// writes the peer's packed amplitude k into the k-th amplitude of `dst`
/// whose bit `a` == `value`, for the k that `src` holds. Each k maps to one
/// amplitude independently of every other, so the region-at-a-time
/// scatter is bitwise identical to one whole pass.
template <simd::SoaSpanAccess S>
void scatter_half(S& dst, int a, int value, const PeerSpan& src,
                  amp_index first, amp_index count) {
  QSV_REQUIRE(first + count <= dst.size() / 2, "scatter region out of range");
  real_t* const dre = dst.re();
  real_t* const dim = dst.im();
  const PeerSpan p = src;
  const amp_index lo = std::max(first, p.first);
  const amp_index hi = std::min(first + count, p.end());
  for_each_half_run(hi > lo ? hi - lo : 0, lo, hi, a, value,
                    [=](amp_index k, amp_index i, amp_index n) {
    std::copy_n(p.re + (k - p.first), n, dre + i);
    std::copy_n(p.im + (k - p.first), n, dim + i);
  });
}

}  // namespace qsv::kern
