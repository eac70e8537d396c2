// Cooperative cancellation: a deadline/cancel token checked at safe points.
//
// A StopToken carries an optional wall-clock deadline and an optional external
// cancel flag. run_verified, the one run loop behind `qsv run` and every
// serve job, polls `expired()` at run boundaries — the only points where the
// statevector is globally consistent — and raises DeadlineExceeded carrying
// how far the run got, so callers can price the partial work and report it
// instead of discarding it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace qsv {

/// Raised when a run is cancelled at a safe point by a StopToken. Carries the
/// prefix length actually applied so the partial cost can be priced.
class DeadlineExceeded : public Error {
 public:
  DeadlineExceeded(const std::string& what, std::uint64_t gates_done,
                   std::uint64_t gates_total, bool cancelled)
      : Error(what),
        gates_done_(gates_done),
        gates_total_(gates_total),
        cancelled_(cancelled) {}

  /// Gates applied before the stop was honoured (state reflects exactly
  /// this prefix of the circuit).
  [[nodiscard]] std::uint64_t gates_done() const { return gates_done_; }
  /// Total gates the interrupted circuit holds.
  [[nodiscard]] std::uint64_t gates_total() const { return gates_total_; }
  /// True when the stop came from the external cancel flag (drain/shed)
  /// rather than the wall-clock deadline.
  [[nodiscard]] bool cancelled() const { return cancelled_; }

 private:
  std::uint64_t gates_done_ = 0;
  std::uint64_t gates_total_ = 0;
  bool cancelled_ = false;
};

/// Cooperative stop request: wall-clock deadline and/or external cancel flag.
/// Copyable and cheap; a default-constructed token never fires.
class StopToken {
 public:
  using clock = std::chrono::steady_clock;

  StopToken() = default;

  /// Token that fires `seconds` from now. The budget is compared against
  /// the elapsed time as a double, never converted into a clock time
  /// point: a budget past the clock's range (about 292 years of
  /// nanoseconds), or an infinite one, never fires instead of overflowing
  /// into the past.
  static StopToken after_seconds(double seconds) {
    StopToken t;
    t.has_deadline_ = true;
    t.start_ = clock::now();
    t.budget_s_ = seconds;
    return t;
  }

  /// Attach an external cancel flag (owned by the caller, must outlive the
  /// token's use). Set it from any thread to request a stop.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_ = flag; }

  /// True once the deadline passed or the cancel flag was raised. Reads no
  /// clock when the token has no deadline.
  [[nodiscard]] bool expired() const {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return true;
    }
    return has_deadline_ &&
           std::chrono::duration<double>(clock::now() - start_).count() >=
               budget_s_;
  }

  /// True when the external cancel flag (not the clock) is the reason.
  [[nodiscard]] bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

 private:
  bool has_deadline_ = false;
  clock::time_point start_{};
  double budget_s_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
};

}  // namespace qsv
