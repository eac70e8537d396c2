#include "cluster/rank_team.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace qsv {

RankTeam::RankTeam(int num_workers, PlacementPlan plan)
    : plan_(std::move(plan)) {
  QSV_REQUIRE(num_workers >= 1, "rank team needs at least one worker");
  QSV_REQUIRE(plan_.domain_of_rank.size() >=
                  static_cast<std::size_t>(num_workers),
              "placement plan covers fewer ranks than the team has workers");
  worker_width_ = std::max(1, loop_width() / num_workers);
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
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void RankTeam::worker_main(int index) {
  bool did_pin = false;
  if (!plan_.cpu_of_rank.empty() &&
      static_cast<std::size_t>(index) < plan_.cpu_of_rank.size()) {
    did_pin =
        pin_current_thread(plan_.cpu_of_rank[static_cast<std::size_t>(index)]);
  }
  // A new thread starts at the process default width, not the
  // constructing thread's; the loops this worker's kernels open get its
  // share of the caller's width instead.
  set_loop_width(worker_width_);
  std::uint64_t seen = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    if (did_pin) {
      ++pinned_;
    }
    ++started_;
  }
  cv_done_.notify_all();

  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      if (index >= job_count_) {
        continue;  // idle this round (shrunk cluster)
      }
      job = job_;
    }
    try {
      (*job)(index);
    } catch (...) {
      // Own slot, written before the done_ handshake publishes it.
      errors_[static_cast<std::size_t>(index)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(m_);
      ++done_;
      if (done_ == job_count_) {
        cv_done_.notify_all();
      }
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
    job_count_ = count;
    done_ = 0;
    ++generation_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] { return done_ == job_count_; });
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
