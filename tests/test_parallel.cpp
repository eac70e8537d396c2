// parallel_for, the one parallel loop in src/: every index runs exactly
// once for empty, tiny and large ranges, in the collapsed 2-D form at both
// lopsided shapes, and when the call is made inside an enclosing parallel
// region (the sweep's tile loop calls the kernels that way). The loop
// width is a per-thread setting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace qsv {
namespace {

/// One counter per index plus a counter for indices outside the range, so
/// a stray index is reported instead of written out of bounds.
class HitCounts {
 public:
  explicit HitCounts(std::int64_t n)
      : hits_(static_cast<std::size_t>(n)), n_(n) {}

  /// Records one visit of `i`. Safe to call from any thread.
  void hit(std::int64_t i) {
    if (i < 0 || i >= n_) {
      stray_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    hits_[static_cast<std::size_t>(i)].fetch_add(1,
                                                 std::memory_order_relaxed);
  }

  /// Expects every index visited exactly once and nothing else.
  void expect_each_once() const {
    EXPECT_EQ(stray_.load(), 0);
    std::int64_t wrong = 0;
    for (const std::atomic<int>& h : hits_) {
      wrong += h.load() != 1 ? 1 : 0;
    }
    EXPECT_EQ(wrong, 0) << "of " << n_ << " indices";
  }

 private:
  std::vector<std::atomic<int>> hits_;
  std::atomic<std::int64_t> stray_{0};
  std::int64_t n_;
};

/// Row-major index of (o, i) in an outer x inner grid; -1 outside it.
std::int64_t flat(std::int64_t o, std::int64_t i, std::int64_t outer,
                  std::int64_t inner) {
  const bool inside = o >= 0 && o < outer && i >= 0 && i < inner;
  return inside ? o * inner + i : -1;
}

TEST(ParallelFor, RunsEachIndexOnce) {
  for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{3}, std::int64_t{1} << 20}) {
    HitCounts counts(n);
    HitCounts* const c = &counts;
    parallel_for(n, [=](std::int64_t i) { c->hit(i); });
    counts.expect_each_once();
  }
}

TEST(ParallelFor, CollapsedFormRunsEachPairOnce) {
  struct Shape {
    std::int64_t outer, inner;
  };
  // One outer step with a long inner run is the case collapsing exists for
  // (a pair stride as wide as the span); the transpose is the other extreme.
  for (const Shape shape : {Shape{1, std::int64_t{1} << 16},
                            Shape{std::int64_t{1} << 16, 1}, Shape{0, 5},
                            Shape{5, 0}}) {
    HitCounts counts(shape.outer * shape.inner);
    HitCounts* const c = &counts;
    parallel_for(shape.outer, shape.inner,
                 [=](std::int64_t o, std::int64_t i) {
                   c->hit(flat(o, i, shape.outer, shape.inner));
                 });
    counts.expect_each_once();
  }
}

TEST(ParallelFor, NestedCallRunsEachIndexOnce) {
  constexpr std::int64_t kOuter = 8;
  constexpr std::int64_t kInner = 4096;
  HitCounts counts(kOuter * kInner);
  HitCounts* const c = &counts;
  parallel_for(kOuter, [=](std::int64_t o) {
    parallel_for(kInner, [=](std::int64_t i) {
      c->hit(flat(o, i, kOuter, kInner));
    });
  });
  counts.expect_each_once();
}

TEST(LoopWidth, IsPerThread) {
  const int process_default = loop_width();
  set_loop_width(process_default + 1);
  // Without OpenMP every width is 1 and setting one does nothing.
  const bool settable = loop_width() == process_default + 1;
  int fresh = 0;
  int other = 0;
  std::thread([&] {
    fresh = loop_width();
    set_loop_width(process_default + 2);
    other = loop_width();
  }).join();
  const int here = loop_width();
  set_loop_width(process_default);

  EXPECT_EQ(fresh, process_default);  // this thread's setting is not seen
  EXPECT_EQ(other, settable ? process_default + 2 : 1);
  EXPECT_EQ(here, settable ? process_default + 1 : 1);  // nor the other's
}

}  // namespace
}  // namespace qsv
