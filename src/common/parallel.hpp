// The one parallel loop. Every pass over a slice, a sweep tile range or a
// reduction's blocks goes through parallel_for, so how a loop is
// parallelised is decided here and nowhere else in src/.
//
// Contract:
//  * Each call opens one OpenMP team as wide as the calling thread's loop
//    width and splits the iterations statically, exactly like
//    `#pragma omp parallel for schedule(static)`. A call made inside an
//    enclosing parallel region (the sweep's tile loop calls the kernels
//    that way) gets OpenMP's nested-region team of one thread.
//  * Each thread runs its own copy of `body`. Capture pointers, spans and
//    scalars by value: in a private copy the compiler can keep them in
//    registers across the loop's stores, which it cannot do through
//    by-reference captures (measured in docs/KERNELS.md §2). Never capture
//    a storage object or a std::vector by value — the writes would land in
//    the copy; capture it by reference or take a pointer to its data.
//  * Built without OpenMP (QSV_DISABLE_OPENMP, the tsan preset) the loops
//    run serially on the calling thread.
//
// This header defines only templates. The ISA-flagged kernel backends
// include it, and a non-template inline function compiled there could
// become the copy that a baseline caller links; the width functions are
// therefore defined in parallel.cpp, built with baseline flags.
#pragma once

#include <cstdint>

namespace qsv {

/// Width of the loops the calling thread opens: OpenMP's own per-thread
/// setting, which the runtime derives from OMP_NUM_THREADS and the CPU
/// affinity mask until set_loop_width changes it. 1 without OpenMP.
[[nodiscard]] int loop_width();

/// Sets the calling thread's loop width (n >= 1). Other threads keep
/// theirs; a new thread starts at the process default. No effect without
/// OpenMP.
void set_loop_width(int n);

/// Runs body(i) for every i in [0, n), each exactly once.
template <class Body>
void parallel_for(std::int64_t n, Body body) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) firstprivate(body)
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    body(i);
  }
}

/// Runs body(o, i) for every o in [0, outer) and i in [0, inner), each
/// pair exactly once. The two loops are collapsed into one static
/// partition of outer * inner iterations, so a shape with a single outer
/// step (a pair stride as wide as the span) still splits across the team.
template <class Body>
void parallel_for(std::int64_t outer, std::int64_t inner, Body body) {
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static) firstprivate(body)
#endif
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < inner; ++i) {
      body(o, i);
    }
  }
}

}  // namespace qsv
