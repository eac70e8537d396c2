#include "common/parallel.hpp"

#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace qsv {

int loop_width() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_loop_width(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  static_cast<void>(n);
#endif
}

void parallel_copy(amp_index amps, std::initializer_list<CopyRange> ranges) {
  const int width = amps >= kParallelMinAmps ? loop_width() : 1;
  if (width <= 1) {
    for (const CopyRange& r : ranges) {
      if (r.bytes != 0) {  // an empty range may carry null pointers
        std::memcpy(r.dst, r.src, r.bytes);
      }
    }
    return;
  }
  // Iteration i copies block i % width of range i / width. Blocks start on
  // 64-byte offsets, so two threads share a destination cache line only
  // where the range itself is unaligned.
  const CopyRange* const first = ranges.begin();
  parallel_for(amps, static_cast<std::int64_t>(ranges.size()) * width,
               [=](std::int64_t i) {
    const CopyRange& r = first[i / width];
    const std::int64_t b = i % width;
    const std::size_t step = (r.bytes / static_cast<std::size_t>(width)) &
                             ~std::size_t{63};
    const std::size_t begin = static_cast<std::size_t>(b) * step;
    const std::size_t end = b + 1 == width ? r.bytes : begin + step;
    std::memcpy(static_cast<std::byte*>(r.dst) + begin,
                static_cast<const std::byte*>(r.src) + begin, end - begin);
  });
}

}  // namespace qsv
