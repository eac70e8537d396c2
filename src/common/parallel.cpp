#include "common/parallel.hpp"

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

}  // namespace qsv
