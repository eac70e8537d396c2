// Internal: the diagonal readout kernel behind KernelOps::diag_sums, written
// once over GCC/Clang vector extensions. Each backend includes this header
// and instantiates it at its own register width: 2 chains per SSE2 register
// in the scalar backend's baseline build, 4 per AVX2 register and 8 per
// AVX-512 register. Everything here sits in an unnamed namespace, so each
// backend's copy stays in its own translation unit, compiled for its ISA.
//
// A chain adds +p or -p once per amplitude, in index order, whatever other
// chains share its register, so the lane count decides how many additions
// run side by side and never the bits of a sum. p = re * re + im * im is
// computed here, in a backend file built with -ffp-contract=off, so it is
// the double std::norm gives; a sign flips p's sign bit, which is what -p
// does.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace qsv::simd {
namespace {

/// Amplitudes per sign block: (-1)^popcount(g & mask) splits into a sign
/// fixed over an aligned block and a within-block sign read from a table.
constexpr amp_index kSignBlock = 64;

/// The register of kLanes chains (Sums) and of their masks or sign bits
/// (Bits). Spelled once per width: an attribute on a type that depends on
/// a template parameter is dropped where the type is a template argument.
template <std::size_t kLanes>
struct ChainRegs;
template <>
struct ChainRegs<2> {
  typedef real_t Sums __attribute__((vector_size(16)));
  typedef std::uint64_t Bits __attribute__((vector_size(16)));
};
template <>
struct ChainRegs<4> {
  typedef real_t Sums __attribute__((vector_size(32)));
  typedef std::uint64_t Bits __attribute__((vector_size(32)));
};
template <>
struct ChainRegs<8> {
  typedef real_t Sums __attribute__((vector_size(64)));
  typedef std::uint64_t Bits __attribute__((vector_size(64)));
};

/// (-1)^popcount(x) per lane, as the sign bit of a double.
template <class Bits>
Bits sign_bits(Bits x) {
  for (int shift = 32; shift > 0; shift /= 2) {
    x ^= x >> shift;
  }
  return x << 63;
}

/// diag_sums with the chains in groups of kRegs registers of kLanes chains,
/// the last group padded with empty masks. A group's chains stay in
/// registers over a block; the block's |a|^2 are computed once, and later
/// groups find them in cache.
template <std::size_t kLanes, std::size_t kRegs>
void diag_sums_by(const real_t* re, const real_t* im, amp_index n,
                  amp_index base, const amp_index* masks, std::size_t count,
                  real_t* acc) {
  using Sums = typename ChainRegs<kLanes>::Sums;
  using Bits = typename ChainRegs<kLanes>::Bits;
  constexpr std::size_t kChains = kLanes * kRegs;
  const std::size_t groups = (count + kChains - 1) / kChains;
  std::vector<Bits> mask_regs(groups * kRegs, Bits{});
  std::vector<Sums> sums(groups * kRegs, Sums{});
  for (std::size_t k = 0; k < count; ++k) {
    mask_regs[k / kLanes][k % kLanes] = masks[k];
    sums[k / kLanes][k % kLanes] = acc[k];
  }
  const amp_index block = std::min(n, kSignBlock);
  // inner[(g * block + i) * kRegs + v]: register v of group g at offset i.
  std::vector<Bits> inner(groups * block * kRegs);
  for (std::size_t g = 0; g < groups; ++g) {
    for (amp_index i = 0; i < block; ++i) {
      for (std::size_t v = 0; v < kRegs; ++v) {
        inner[(g * block + i) * kRegs + v] =
            sign_bits(mask_regs[g * kRegs + v] & i);
      }
    }
  }
  real_t p[kSignBlock];
  for (amp_index first = 0; first < n; first += block) {
    for (amp_index i = 0; i < block; ++i) {
      p[i] = re[first + i] * re[first + i] + im[first + i] * im[first + i];
    }
    for (std::size_t g = 0; g < groups; ++g) {
      Bits outer[kRegs];
      Sums a[kRegs];
      for (std::size_t v = 0; v < kRegs; ++v) {
        outer[v] = sign_bits(mask_regs[g * kRegs + v] & (base + first));
        a[v] = sums[g * kRegs + v];
      }
      const Bits* sign = &inner[g * block * kRegs];
      for (amp_index i = 0; i < block; ++i, sign += kRegs) {
        // |a_i|^2 in every lane, then added to every chain with its sign.
        const Bits pi = Bits{} | std::bit_cast<std::uint64_t>(p[i]);
        for (std::size_t v = 0; v < kRegs; ++v) {
          a[v] += std::bit_cast<Sums>(sign[v] ^ outer[v] ^ pi);
        }
      }
      for (std::size_t v = 0; v < kRegs; ++v) {
        sums[g * kRegs + v] = a[v];
      }
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    acc[k] = sums[k / kLanes][k % kLanes];
  }
}

/// diag_sums for one mask, as a lone double, whose additions have the
/// shortest latency: a block's signed |a|^2 are formed first, then added
/// one at a time. The norm is the empty mask's chain.
void diag_sum_one(const real_t* re, const real_t* im, amp_index n,
                  amp_index base, amp_index mask, real_t* acc) {
  const amp_index block = std::min(n, kSignBlock);
  std::uint64_t inner[kSignBlock];
  for (amp_index i = 0; i < block; ++i) {
    inner[i] = sign_bits(mask & i);
  }
  std::uint64_t term[kSignBlock];
  real_t sum = *acc;
  for (amp_index first = 0; first < n; first += block) {
    const std::uint64_t outer = sign_bits(mask & (base + first));
    for (amp_index i = 0; i < block; ++i) {
      const real_t p =
          re[first + i] * re[first + i] + im[first + i] * im[first + i];
      term[i] = std::bit_cast<std::uint64_t>(p) ^ inner[i] ^ outer;
    }
    for (amp_index i = 0; i < block; ++i) {
      sum += std::bit_cast<real_t>(term[i]);
    }
  }
  *acc = sum;
}

/// The KernelOps::diag_sums entry at kLanes chains per register: one mask
/// takes diag_sum_one, a few take one or two registers, more take groups
/// of four, enough independent additions to hide each one's latency.
template <std::size_t kLanes>
void diag_sums(const real_t* re, const real_t* im, amp_index n,
               amp_index base, const amp_index* masks, std::size_t count,
               real_t* acc) {
  if (count == 1) {
    diag_sum_one(re, im, n, base, masks[0], acc);
  } else if (count <= kLanes) {
    diag_sums_by<kLanes, 1>(re, im, n, base, masks, count, acc);
  } else if (count <= 2 * kLanes) {
    diag_sums_by<kLanes, 2>(re, im, n, base, masks, count, acc);
  } else {
    diag_sums_by<kLanes, 4>(re, im, n, base, masks, count, acc);
  }
}

}  // namespace
}  // namespace qsv::simd
