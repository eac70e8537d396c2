// Gate application kernels, templated over the amplitude storage layout.
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
// A slice must expose raw contiguous storage (sv/simd/simd.hpp span
// concepts). The hot dense kernels (matrix1/matrix2/swap/phase/rz) run on
// those spans: on the SoA layout through the runtime-selected SIMD backend
// table, on the AoS layout through the scalar AoS kernels. Backends are
// bit-identical, so the routing never changes results (docs/KERNELS.md).
#pragma once

#include <cmath>
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
template <simd::SpanAccess S>
void apply_matrix1(S& s, int target, const Mat2& u, amp_index local_ctrl_mask) {
  if constexpr (simd::SoaSpanAccess<S>) {
    simd::ops().matrix1_soa(simd::soa_span(s), target, u, local_ctrl_mask);
  } else {
    simd::matrix1_aos(simd::aos_span(s), target, u, local_ctrl_mask);
  }
}

/// Applies a 4x4 matrix to two local targets (a = low subspace bit, b =
/// high subspace bit) with an optional local control mask.
template <simd::SpanAccess S>
void apply_matrix2(S& s, int a, int b, const Mat4& u,
                   amp_index local_ctrl_mask) {
  QSV_REQUIRE(a != b, "unitary2 targets must differ");
  if constexpr (simd::SoaSpanAccess<S>) {
    simd::ops().matrix2_soa(simd::soa_span(s), a, b, u, local_ctrl_mask);
  } else {
    simd::matrix2_aos(simd::aos_span(s), a, b, u, local_ctrl_mask);
  }
}

/// SWAP of two local qubits.
template <simd::SpanAccess S>
void apply_swap_local(S& s, int a, int b) {
  QSV_REQUIRE(a != b, "swap targets must differ");
  if constexpr (simd::SoaSpanAccess<S>) {
    simd::ops().swap_soa(simd::soa_span(s), a, b);
  } else {
    simd::swap_aos(simd::aos_span(s), a, b);
  }
}

/// Multiplies every amplitude whose global index has all bits of `mask` set
/// by `factor`. `mask` may include high bits; the caller passes the global
/// mask and the slice's rank_bits.
template <simd::SpanAccess S>
void apply_phase_mask(S& s, amp_index global_mask, cplx factor,
                      int local_qubits, amp_index rank_bits) {
  const amp_index high_mask = global_mask >> local_qubits;
  if (!bits::all_set(rank_bits, high_mask)) {
    return;  // this slice fails the high-bit part of the mask
  }
  const amp_index local_mask =
      global_mask & ((amp_index{1} << local_qubits) - 1);
  if constexpr (simd::SoaSpanAccess<S>) {
    simd::ops().phase_soa(simd::soa_span(s), local_mask, factor);
  } else {
    simd::phase_aos(simd::aos_span(s), local_mask, factor);
  }
}

/// Rz: phases both halves of the target (no control support needed beyond
/// the mask, which gates the whole update).
template <simd::SpanAccess S>
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
    if constexpr (simd::SoaSpanAccess<S>) {
      simd::ops().phase_soa(simd::soa_span(s), local_ctrl, f);
    } else {
      simd::phase_aos(simd::aos_span(s), local_ctrl, f);
    }
    return;
  }

  if constexpr (simd::SoaSpanAccess<S>) {
    simd::ops().rz_soa(simd::soa_span(s), target_global, f0, f1, local_ctrl);
  } else {
    simd::rz_aos(simd::aos_span(s), target_global, f0, f1, local_ctrl);
  }
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
template <simd::SpanAccess S>
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
// pairwise exchange; `theirs` is the peer's full slice).
// ---------------------------------------------------------------------------

/// Distributed single-target gate: this rank holds the `my_row` components
/// (my_row = my rank's bit of the target). After receiving the peer slice:
/// new[i] = u[my_row][my_row]*mine[i] + u[my_row][1-my_row]*theirs[i].
/// `local_ctrl_mask` gates per-amplitude updates (high controls are decided
/// before the exchange).
///
/// The _range forms update amplitudes [first, first + count) only — the
/// overlapped exchange pipeline applies them chunk by chunk as payloads
/// arrive. Each amplitude's update is independent and written by exactly
/// the same expression as the full-slice form (which delegates here), so
/// region-at-a-time application is bitwise identical to one whole pass.
template <class S>
void combine_matrix1_range(S& mine, const S& theirs, int my_row, const Mat2& u,
                           amp_index local_ctrl_mask, amp_index first,
                           amp_index count) {
  QSV_REQUIRE(mine.size() == theirs.size(), "slice size mismatch");
  QSV_REQUIRE(first + count <= mine.size(), "combine region out of range");
  const cplx diag = u.m[my_row][my_row];
  const cplx off = u.m[my_row][1 - my_row];
  parallel_for(count, static_cast<std::int64_t>(count),
               [=, &mine, &theirs](std::int64_t k) {
                 const amp_index i = first + static_cast<amp_index>(k);
                 if (!bits::all_set(i, local_ctrl_mask)) {
                   return;
                 }
                 mine.set(i, diag * mine.get(i) + off * theirs.get(i));
               });
}

template <class S>
void combine_matrix1(S& mine, const S& theirs, int my_row, const Mat2& u,
                     amp_index local_ctrl_mask) {
  combine_matrix1_range(mine, theirs, my_row, u, local_ctrl_mask, 0,
                        mine.size());
}

/// Distributed SWAP with one local target `a` and the distributed target in
/// the rank bits: amplitudes whose local bit `a` differs from this rank's
/// bit of the distributed target are replaced from the peer slice.
/// Range form for the overlapped pipeline. An amplitude i in the region
/// reads theirs[flip_bit(i, a)], which may sit outside [first, first+count):
/// callers must only pass regions closed under flipping bit `a` — i.e.
/// aligned to (and a multiple of) 2^(a+1) amplitudes, which the frontier
/// driver guarantees (sv/sweep.hpp).
template <class S>
void combine_swap_one_high_range(S& mine, const S& theirs, int a,
                                 int my_high_bit, amp_index first,
                                 amp_index count) {
  QSV_REQUIRE(mine.size() == theirs.size(), "slice size mismatch");
  QSV_REQUIRE(first + count <= mine.size(), "combine region out of range");
  parallel_for(count, static_cast<std::int64_t>(count),
               [=, &mine, &theirs](std::int64_t k) {
                 const amp_index i = first + static_cast<amp_index>(k);
                 if (bits::bit(i, a) != my_high_bit) {
                   mine.set(i, theirs.get(bits::flip_bit(i, a)));
                 }
               });
}

template <class S>
void combine_swap_one_high(S& mine, const S& theirs, int a, int my_high_bit) {
  combine_swap_one_high_range(mine, theirs, a, my_high_bit, 0, mine.size());
}

/// Distributed SWAP with both targets in the rank bits: the slices are
/// exchanged wholesale (pure relabelling).
template <class S>
void combine_swap_two_high_range(S& mine, const S& theirs, amp_index first,
                                 amp_index count) {
  QSV_REQUIRE(mine.size() == theirs.size(), "slice size mismatch");
  QSV_REQUIRE(first + count <= mine.size(), "combine region out of range");
  parallel_for(count, static_cast<std::int64_t>(count),
               [=, &mine, &theirs](std::int64_t k) {
                 const amp_index i = first + static_cast<amp_index>(k);
                 mine.set(i, theirs.get(i));
               });
}

template <class S>
void combine_swap_two_high(S& mine, const S& theirs) {
  combine_swap_two_high_range(mine, theirs, 0, mine.size());
}

// ---------------------------------------------------------------------------
// Half-exchange helpers (the paper's future-work optimisation): only the
// half of the slice whose bit `a` equals `value` moves.
// ---------------------------------------------------------------------------

/// Copies the amplitudes of `src` whose bit `a` == `value`, in increasing
/// index order, into dst[first, first + src.size() / 2).
template <class S>
void gather_half(const S& src, int a, int value, S& dst, amp_index first) {
  const amp_index half = src.size() / 2;
  QSV_REQUIRE(first + half <= dst.size(), "gather region out of range");
  parallel_for(half, static_cast<std::int64_t>(half),
               [=, &src, &dst](std::int64_t kk) {
                 const amp_index k = static_cast<amp_index>(kk);
                 amp_index i = bits::insert_zero_bit(k, a);
                 if (value) {
                   i = bits::set_bit(i, a);
                 }
                 dst.set(first + k, src.get(i));
               });
}

/// Inverse of gather_half over packed indices [first, first + count):
/// writes src[k] into the k-th amplitude of `dst` whose bit `a` == `value`.
/// Each k maps to one amplitude independently of every other, so the
/// overlapped pipeline's region-at-a-time scatter is bitwise identical to
/// one whole pass.
template <class S>
void scatter_half(S& dst, int a, int value, const S& src, amp_index first,
                  amp_index count) {
  QSV_REQUIRE(first + count <= dst.size() / 2 && first + count <= src.size(),
              "scatter region out of range");
  parallel_for(count, static_cast<std::int64_t>(count),
               [=, &dst, &src](std::int64_t kk) {
                 const amp_index k = first + static_cast<amp_index>(kk);
                 amp_index i = bits::insert_zero_bit(k, a);
                 if (value) {
                   i = bits::set_bit(i, a);
                 }
                 dst.set(i, src.get(k));
               });
}

}  // namespace qsv::kern
