// parallel_for, the one parallel loop in src/: every index runs exactly
// once for empty, tiny and large ranges, in the collapsed 2-D form at both
// lopsided shapes, and when the call is made inside an enclosing parallel
// region (the sweep's tile loop calls the kernels that way). A loop over
// fewer than kParallelMinAmps amplitudes stays on the calling thread, a
// larger one opens a team whatever its iteration count, and the loop
// width is a per-thread setting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
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

/// The set of threads that ran a loop's iterations.
class ThreadIds {
 public:
  /// Records the calling thread. Safe to call from any thread.
  void record() {
    const std::lock_guard<std::mutex> lock(mu_);
    ids_.insert(std::this_thread::get_id());
  }

  [[nodiscard]] std::set<std::thread::id> ids() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return ids_;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::thread::id> ids_;
};

/// Row-major index of (o, i) in an outer x inner grid; -1 outside it.
std::int64_t flat(std::int64_t o, std::int64_t i, std::int64_t outer,
                  std::int64_t inner) {
  const bool inside = o >= 0 && o < outer && i >= 0 && i < inner;
  return inside ? o * inner + i : -1;
}

/// Amplitudes covered by a loop of n single-amplitude iterations.
amp_index amps_of(std::int64_t n) { return static_cast<amp_index>(n); }

TEST(ParallelFor, RunsEachIndexOnce) {
  const auto cutoff = static_cast<std::int64_t>(kParallelMinAmps);
  for (const std::int64_t n :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{3}, cutoff - 1, cutoff,
        std::int64_t{1} << 20}) {
    HitCounts counts(n);
    HitCounts* const c = &counts;
    parallel_for(amps_of(n), n, [=](std::int64_t i) { c->hit(i); });
    counts.expect_each_once();
  }
}

/// A loop width at which a team, were one opened, runs on several threads.
constexpr int kWide = 4;

TEST(ParallelFor, BelowTheCutoffRunsOnTheCallingThread) {
  const int saved = loop_width();
  set_loop_width(kWide);
  ThreadIds one_d;
  ThreadIds two_d;
  ThreadIds* const ids1 = &one_d;
  ThreadIds* const ids2 = &two_d;
  parallel_for(kParallelMinAmps - 1, 1024,
               [=](std::int64_t) { ids1->record(); });
  parallel_for(kParallelMinAmps - 1, 32, 32,
               [=](std::int64_t, std::int64_t) { ids2->record(); });
  set_loop_width(saved);

  const std::set<std::thread::id> caller{std::this_thread::get_id()};
  EXPECT_EQ(one_d.ids(), caller);
  EXPECT_EQ(two_d.ids(), caller);
}

TEST(ParallelFor, AtTheCutoffOpensATeam) {
  const int saved = loop_width();
  set_loop_width(kWide);
  const bool openmp = loop_width() == kWide;  // false without OpenMP
  ThreadIds one_d;
  ThreadIds two_d;
  ThreadIds tiles;
  ThreadIds* const ids1 = &one_d;
  ThreadIds* const ids2 = &two_d;
  ThreadIds* const ids3 = &tiles;
  // Few iterations, each covering many amplitudes: the cutoff counts
  // amplitudes, so every loop still splits across the team.
  parallel_for(kParallelMinAmps, 64, [=](std::int64_t) { ids1->record(); });
  parallel_for(kParallelMinAmps, 8, 8,
               [=](std::int64_t, std::int64_t) { ids2->record(); });
  // The sweep's tile loop: 64 tiles of 2^15 amplitudes, a 2^21-amplitude
  // register. Counted in iterations it would fall under the cutoff.
  parallel_for(amp_index{1} << 21, 64, [=](std::int64_t) { ids3->record(); });
  set_loop_width(saved);

  if (!openmp) {
    GTEST_SKIP() << "built without OpenMP";
  }
  EXPECT_GT(one_d.ids().size(), 1u);
  EXPECT_GT(two_d.ids().size(), 1u);
  EXPECT_GT(tiles.ids().size(), 1u);
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
    parallel_for(amps_of(shape.outer * shape.inner), shape.outer, shape.inner,
                 [=](std::int64_t o, std::int64_t i) {
                   c->hit(flat(o, i, shape.outer, shape.inner));
                 });
    counts.expect_each_once();
  }
}

TEST(ParallelFor, NestedCallRunsEachIndexOnce) {
  // Both loops are above the cutoff, so the inner call is made inside the
  // outer team and gets OpenMP's nested team of one.
  constexpr std::int64_t kOuter = 8;
  constexpr std::int64_t kInner = 4096;
  HitCounts counts(kOuter * kInner);
  HitCounts* const c = &counts;
  const amp_index outer_amps =
      static_cast<amp_index>(kOuter) * kParallelMinAmps;
  parallel_for(outer_amps, kOuter, [=](std::int64_t o) {
    parallel_for(kParallelMinAmps, kInner, [=](std::int64_t i) {
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
