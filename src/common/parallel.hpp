// The one parallel loop. Every pass over a slice, a sweep tile range or a
// reduction's blocks goes through parallel_for, so how a loop is
// parallelised is decided here and nowhere else in src/.
//
// Contract:
//  * Every call states how many amplitudes the whole loop covers, whatever
//    one iteration steps over (an amplitude, a pair, a vector, a reduction
//    block, a sweep tile). The count, not the iteration count, decides
//    whether a team opens: 64 sweep tiles over 2^21 amplitudes are worth a
//    team, 2^12 single-amplitude iterations are not.
//  * A loop covering fewer than kParallelMinAmps amplitudes runs its body
//    on the calling thread with no OpenMP call at all. The cutoff is a
//    measured constant (docs/KERNELS.md §2), not a setting: no environment
//    variable, flag or build option changes it.
//  * A larger loop opens one OpenMP team as wide as the calling thread's
//    loop width and splits the iterations statically, exactly like
//    `#pragma omp parallel for schedule(static)`. A call made inside an
//    enclosing parallel region (the sweep's tile loop calls the kernels
//    that way) gets OpenMP's nested-region team of one thread.
//  * Each thread runs its own copy of `body`, and so does the serial path.
//    Capture pointers, spans and scalars by value: in a private copy the
//    compiler can keep them in registers across the loop's stores, which
//    it cannot do through by-reference captures (measured in
//    docs/KERNELS.md §2). The serial path copies the by-value parameter
//    into a local for the same reason; calling the parameter itself left
//    captured vectors in memory, re-read on every iteration. Never capture
//    a storage object or a std::vector by value — the writes would land in
//    the copy; capture it by reference or take a pointer to its data.
//  * Built without OpenMP (QSV_DISABLE_OPENMP, the tsan preset) every loop
//    runs serially on the calling thread.
//
// This header defines only templates and constants. The ISA-flagged kernel
// backends include it, and a non-template inline function compiled there
// could become the copy that a baseline caller links; the width functions
// and the block-split copy are therefore defined in parallel.cpp, built
// with baseline flags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "common/types.hpp"

namespace qsv {

/// Loops covering fewer amplitudes than this run on the calling thread.
/// Below it a team's fork/join costs more than the team saves; a rank
/// slice of exactly 2^16 amplitudes still gains from one.
inline constexpr amp_index kParallelMinAmps = amp_index{1} << 16;

/// Width of the loops the calling thread opens: OpenMP's own per-thread
/// setting, which the runtime derives from OMP_NUM_THREADS and the CPU
/// affinity mask until set_loop_width changes it. 1 without OpenMP.
[[nodiscard]] int loop_width();

/// Sets the calling thread's loop width (n >= 1). Other threads keep
/// theirs; a new thread starts at the process default. No effect without
/// OpenMP.
void set_loop_width(int n);

/// One contiguous copy of `bytes` bytes between non-overlapping ranges.
struct CopyRange {
  void* dst;
  const void* src;
  std::size_t bytes;
};

/// Performs every copy in `ranges`, which together move `amps` amplitudes.
/// Below kParallelMinAmps, or at a loop width of 1, each is one memcpy on
/// the calling thread; otherwise one team splits every range into
/// loop_width() contiguous blocks and copies them at once.
void parallel_copy(amp_index amps, std::initializer_list<CopyRange> ranges);

/// Runs body(i) for every i in [0, n), each exactly once. The n
/// iterations together cover `amps` amplitudes.
template <class Body>
void parallel_for([[maybe_unused]] amp_index amps, std::int64_t n,
                  Body body) {
#ifdef _OPENMP
  if (amps >= kParallelMinAmps) {
#pragma omp parallel for schedule(static) firstprivate(body)
    for (std::int64_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
#endif
  Body local = body;  // see the contract: not the parameter itself
  for (std::int64_t i = 0; i < n; ++i) {
    local(i);
  }
}

/// Runs body(o, i) for every o in [0, outer) and i in [0, inner), each
/// pair exactly once; together they cover `amps` amplitudes. A team splits
/// the two loops collapsed into one static partition of outer * inner
/// iterations, so a shape with a single outer step (a pair stride as wide
/// as the span) still splits across it.
template <class Body>
void parallel_for([[maybe_unused]] amp_index amps, std::int64_t outer,
                  std::int64_t inner, Body body) {
#ifdef _OPENMP
  if (amps >= kParallelMinAmps) {
#pragma omp parallel for collapse(2) schedule(static) firstprivate(body)
    for (std::int64_t o = 0; o < outer; ++o) {
      for (std::int64_t i = 0; i < inner; ++i) {
        body(o, i);
      }
    }
    return;
  }
#endif
  Body local = body;
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < inner; ++i) {
      local(o, i);
    }
  }
}

}  // namespace qsv
