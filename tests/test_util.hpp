// Shared test helpers.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/matrix.hpp"
#include "common/parallel.hpp"
#include "common/types.hpp"
#include "sv/statevector.hpp"

namespace qsv::test {

inline constexpr real_t kTol = 1e-10;

/// Restores the calling thread's loop width (common/parallel.hpp) when it
/// goes out of scope, so a test that sets widths leaves the next one as it
/// found it.
class LoopWidthGuard {
 public:
  LoopWidthGuard() : saved_(loop_width()) {}
  ~LoopWidthGuard() { set_loop_width(saved_); }
  LoopWidthGuard(const LoopWidthGuard&) = delete;
  LoopWidthGuard& operator=(const LoopWidthGuard&) = delete;

 private:
  int saved_;
};

/// A fresh directory for one test, removed with everything in it when the
/// object goes out of scope. Every directory lives under one root per
/// process (qsv-test-<pid> in gtest's temp dir), so suites built twice and
/// run side by side never share one, and the root goes with the last
/// directory in it.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    static int made = 0;
    path_ = (root() / (std::to_string(made++) + "-" + name)).string();
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::remove(root(), ec);  // fails while others remain
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  /// A path for file `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  static std::filesystem::path root() {
    return std::filesystem::path(testing::TempDir()) /
           ("qsv-test-" + std::to_string(::getpid()));
  }

  std::string path_;
};

/// Applies a circuit to a dense vector via full matrices (brute force).
inline std::vector<cplx> dense_apply(const Circuit& c,
                                     std::vector<cplx> state) {
  for (const Gate& g : c) {
    state = DenseMatrix::of_gate(g, c.num_qubits()).apply(state);
  }
  return state;
}

/// Max |a_i - b_i| over two amplitude vectors.
inline real_t max_diff(const std::vector<cplx>& a,
                       const std::vector<cplx>& b) {
  EXPECT_EQ(a.size(), b.size());
  real_t m = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

/// Expects two amplitude vectors to agree elementwise within tol.
inline void expect_state_eq(const std::vector<cplx>& got,
                            const std::vector<cplx>& want,
                            real_t tol = kTol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), tol) << "index " << i;
    EXPECT_NEAR(got[i].imag(), want[i].imag(), tol) << "index " << i;
  }
}

}  // namespace qsv::test
