// Internal: where the members of matrix2's quads sit in the vector
// registers of the AVX2 (4 lanes) and AVX-512 (8 lanes) tables, as plain
// integers each table turns into its own index and coefficient vectors.
// Everything here sits in an unnamed namespace, so each table's copy stays
// in its own translation unit.
//
// matrix2 works on groups of whole quads. A target below log2(kLanes) (a
// lane bit) varies inside each vector; a target at or above it (a vector
// bit) selects between whole vectors. `kVecBits` has bit k set when
// subspace bit k's target (a for k = 0, b for k = 1) is a vector bit, so a
// group spans 2^popcount(kVecBits) vectors: the 4 members of kLanes quads
// side by side when both targets are vector bits, kLanes / 4 whole quads in
// one vector when both are lane bits. A permute brings quad member c of
// lane l's quad into lane l, where a per-lane coefficient vector holds the
// entries of the matrix row that lane's output takes; every lane then runs
// the matrix2 chain over columns 0..3 as the scalar loop does.
#pragma once

#include <bit>
#include <cstdint>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace qsv::simd {
namespace {

/// Group vector j holds the quad members whose vector bits spell j: the
/// subspace index with those bits is vector_sub(j), and member `sub` sits
/// in group vector vector_of(sub).
template <unsigned kVecBits>
constexpr int vector_sub(int j) {
  return kVecBits == 2 ? j << 1 : j;
}
template <unsigned kVecBits>
constexpr int vector_of(int sub) {
  return (sub & static_cast<int>(kVecBits)) >> (kVecBits == 2 ? 1 : 0);
}

/// One target pair's layout: each group vector's offset from the group
/// base, for each column c the lane of group vector vector_of(c) that holds
/// member c of lane l's quad, and the matrix row of lane l in output
/// vector v.
template <int kLanes, unsigned kVecBits>
struct QuadPlan {
  static constexpr int kVecs = 1 << std::popcount(kVecBits);
  std::int64_t offset[kVecs];
  int member[4][kLanes];
  int row[kVecs][kLanes];
};

template <int kLanes, unsigned kVecBits>
QuadPlan<kLanes, kVecBits> quad_plan(int a, int b) {
  QuadPlan<kLanes, kVecBits> p{};
  const int target[2] = {a, b};
  const auto offset_of = [&](int sub) {
    std::int64_t off = 0;
    for (int k = 0; k < 2; ++k) {
      if ((sub >> k) & 1) {
        off += std::int64_t{1} << target[k];
      }
    }
    return off;
  };
  const int lane_subs = 3 & ~static_cast<int>(kVecBits);
  const auto lane_mask = static_cast<int>(offset_of(lane_subs));
  for (int j = 0; j < p.kVecs; ++j) {
    p.offset[j] = offset_of(vector_sub<kVecBits>(j));
  }
  for (int c = 0; c < 4; ++c) {
    for (int l = 0; l < kLanes; ++l) {
      p.member[c][l] =
          (l & ~lane_mask) | static_cast<int>(offset_of(c & lane_subs));
    }
  }
  for (int v = 0; v < p.kVecs; ++v) {
    for (int l = 0; l < kLanes; ++l) {
      int row = vector_sub<kVecBits>(v);
      for (int k = 0; k < 2; ++k) {
        if (((lane_subs >> k) & 1) && ((l >> target[k]) & 1)) {
          row |= 1 << k;
        }
      }
      p.row[v][l] = row;
    }
  }
  return p;
}

/// Index of the first amplitude of group `group`: kLanes consecutive quad
/// bases share the lane bits, and the vector-bit targets are zero there.
template <int kLanes, unsigned kVecBits>
amp_index group_base(std::int64_t group, int lo, int hi) {
  const auto first = static_cast<amp_index>(kLanes) *
                     static_cast<amp_index>(group);
  if constexpr (kVecBits == 3) {
    return bits::insert_two_zero_bits(first, lo, hi);
  } else if constexpr (kVecBits != 0) {
    return bits::insert_zero_bit(first, hi);
  } else {
    return first;
  }
}

}  // namespace
}  // namespace qsv::simd
