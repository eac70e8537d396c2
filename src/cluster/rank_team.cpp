#include "cluster/rank_team.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qsv {
namespace {

/// How long an unpinned worker that finished a region polls for the next
/// before it blocks. Measured on RCS 19x3 at 4 ranks on 4 CPUs (`qsv run
/// --threads auto --policy overlapped --placement none`, 34 regions a run,
/// 10 runs): workers that blocked at once were woken onto CPUs another rank
/// still used, and 15-31 regions a run started two workers on one CPU, the
/// last worker 11-22 ms after the first summed over the run. Polling for 1
/// ms left 0-1 such regions and 0.10-0.17 ms, and the run's median fell
/// from 0.071 s to 0.052 s. A 300 us budget ran as fast but left 0-13
/// regions doubled up: the orchestrator's work between some regions
/// outlasts it.
/// The poll yields the CPU on every check, so a thread that needs it (the
/// orchestrator between regions, another process) gets it: three such
/// processes sharing the CPUs take as long as without the poll, where
/// spinning in place cost them 13-17%. Spinning for the first 50 us before
/// the yields measured the same as yielding throughout.
constexpr std::chrono::microseconds kPollBudget{1000};

constexpr int kCountBits = 32;
constexpr std::uint64_t kCountMask = (std::uint64_t{1} << kCountBits) - 1;

}  // namespace

RankTeam::RankTeam(int num_workers, const HostTopology& topo,
                   PlacementPolicy policy) {
  QSV_REQUIRE(num_workers >= 1, "rank team needs at least one worker");
  worker_width_ = std::max(1, loop_width() / num_workers);
  plan_ = plan_placement(topo, num_workers, policy, worker_width_);
  // A pinned worker is already woken on CPUs of its own; polling there
  // measured no faster and cost CPU time.
  polls_ = policy == PlacementPolicy::kNone &&
           std::int64_t{num_workers} * worker_width_ <=
               static_cast<std::int64_t>(allowed_cpus().size());
  errors_.resize(static_cast<std::size_t>(num_workers));
  pair_slots_.resize(static_cast<std::size_t>(num_workers));
  for (auto& slot : pair_slots_) {
    slot = std::make_unique<PairSlot>();
  }
  threads_.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
  // Wait for every worker to finish its init (pinning, loop width) so
  // pinned() is final once construction returns and first-touch work
  // dispatched immediately after lands on already-placed threads.
  std::unique_lock<std::mutex> lk(m_);
  cv_done_.wait(lk, [&] { return started_ == num_workers; });
}

RankTeam::~RankTeam() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_.store(true, std::memory_order_release);
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

std::uint64_t RankTeam::await_ticket(std::uint64_t seen) {
  std::uint64_t ticket = seen;
  const auto fresh = [&] {
    ticket = ticket_.load(std::memory_order_acquire);
    return ticket != seen || stop_.load(std::memory_order_acquire);
  };
  if (polls_) {
    const auto until = std::chrono::steady_clock::now() + kPollBudget;
    while (std::chrono::steady_clock::now() < until) {
      if (fresh()) {
        return ticket;
      }
      std::this_thread::yield();
    }
  }
  std::unique_lock<std::mutex> lk(m_);
  cv_work_.wait(lk, fresh);
  return ticket;
}

void RankTeam::worker_main(int index) {
  const bool did_pin =
      !plan_.cpus_of_rank.empty() &&
      pin_current_thread(plan_.cpus_of_rank[static_cast<std::size_t>(index)]);
  // A new thread starts at the process default width, not the
  // constructing thread's; the loops this worker's kernels open get its
  // share of the caller's width instead, on the CPUs it was pinned to.
  set_loop_width(worker_width_);
  {
    std::lock_guard<std::mutex> lk(m_);
    if (did_pin) {
      ++pinned_;
    }
    ++started_;
  }
  cv_done_.notify_all();

  std::uint64_t seen = 0;
  for (;;) {
    seen = await_ticket(seen);
    if (stop_.load(std::memory_order_acquire)) {
      return;
    }
    const int count = static_cast<int>(seen & kCountMask);
    if (index >= count) {
      continue;  // idle this round (shrunk cluster)
    }
    try {
      (*job_)(index);
    } catch (...) {
      // Own slot, written before the done_ handshake publishes it.
      errors_[static_cast<std::size_t>(index)] = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(m_);
    if (++done_ == count) {
      cv_done_.notify_all();
    }
  }
}

void RankTeam::run(int count, const std::function<void(int)>& fn) {
  QSV_REQUIRE(count >= 0 && count <= workers(),
              "rank team of " + std::to_string(workers()) +
                  " workers cannot run " + std::to_string(count) + " ranks");
  if (count == 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    job_ = &fn;
    done_ = 0;
    ++generation_;
    ticket_.store((generation_ << kCountBits) |
                      static_cast<std::uint64_t>(count),
                  std::memory_order_release);
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] { return done_ == count; });
    job_ = nullptr;
  }
  // Lowest rank first: the order the serial engine would have surfaced it.
  for (int r = 0; r < count; ++r) {
    if (errors_[static_cast<std::size_t>(r)]) {
      std::rethrow_exception(errors_[static_cast<std::size_t>(r)]);
    }
  }
}

RankTeam::PairOutcome RankTeam::pair_arrive(int pair_id, bool fail,
                                            bool timed, bool fatal,
                                            double timeout_s) {
  QSV_REQUIRE(pair_id >= 0 &&
                  static_cast<std::size_t>(pair_id) < pair_slots_.size(),
              "pair id out of range");
  PairSlot& s = *pair_slots_[static_cast<std::size_t>(pair_id)];
  std::unique_lock<std::mutex> lk(s.m);
  s.fail = s.fail || fail;
  s.timed = s.timed || timed;
  s.fatal = s.fatal || fatal;
  ++s.arrived;
  if (s.arrived == 2) {
    s.result = PairOutcome{s.fail, s.timed, s.fatal};
    s.fail = s.timed = s.fatal = false;
    s.arrived = 0;
    ++s.epoch;
    s.cv.notify_all();
    return s.result;
  }
  const std::uint64_t my_epoch = s.epoch;
  const auto done = [&] { return s.epoch != my_epoch; };
  if (timeout_s > 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    if (!s.cv.wait_until(lk, deadline, done)) {
      // Withdraw so a later round does not see a stale arrival.
      s.arrived = 0;
      s.fail = s.timed = s.fatal = false;
      throw Error("pair rendezvous " + std::to_string(pair_id) +
                  " timed out waiting for the peer rank");
    }
  } else {
    s.cv.wait(lk, done);
  }
  // Safe to read: the next round needs this thread to arrive again before
  // it can complete and overwrite result.
  return s.result;
}

}  // namespace qsv
