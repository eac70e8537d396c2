#include "cluster/health.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qsv {
namespace {

/// Suspicion threshold: a rank whose phi (staleness / mean heartbeat
/// interval) reaches this becomes suspected. 8 mean-intervals of silence is
/// far beyond any single straggle, so one late message never trips it.
constexpr double kSuspectPhi = 8.0;
/// Hysteresis: a suspected rank is only cleared once phi falls back to this
/// (a fresh heartbeat). The band between kClearPhi and kSuspectPhi holds the
/// previous state, so the flag cannot flap.
constexpr double kClearPhi = 1.0;
static_assert(kClearPhi <= kSuspectPhi);
/// Local stretches emit a probe heartbeat for every live rank each time this
/// many gates pass without an exchange (the idle-period probe).
constexpr std::uint64_t kProbeCadenceGates = 8;
/// Floor for the mean-interval estimate, in gates: a burst of exchanges must
/// not shrink the mean so far that the next local stretch looks like
/// silence.
constexpr double kMinMeanInterval = 1.0;

}  // namespace

HealthMonitor::HealthMonitor(int num_ranks)
    : ranks_(static_cast<std::size_t>(num_ranks)) {
  QSV_REQUIRE(num_ranks >= 1, "health monitor needs at least one rank");
}

void HealthMonitor::heartbeat(rank_t r, std::uint64_t gate) {
  if (r < 0 || r >= num_ranks()) {
    return;
  }
  RankState& s = ranks_[static_cast<std::size_t>(r)];
  // A beat from a confirmed-dead rank means a fresh node took the id over
  // (substitution): resume the bookkeeping.
  s.dead = false;
  if (gate > s.last_beat) {
    const double interval = static_cast<double>(gate - s.last_beat);
    s.mean_interval = 0.8 * s.mean_interval + 0.2 * interval;
  }
  s.last_beat = gate;
  ++stats_.beats;
}

double HealthMonitor::phi(rank_t r, std::uint64_t now_gate) const {
  if (r < 0 || r >= num_ranks()) {
    return 0;
  }
  const RankState& s = ranks_[static_cast<std::size_t>(r)];
  if (s.dead || now_gate <= s.last_beat) {
    return 0;
  }
  const double staleness = static_cast<double>(now_gate - s.last_beat);
  return staleness / std::max(s.mean_interval, kMinMeanInterval);
}

bool HealthMonitor::suspected(rank_t r) const {
  if (r < 0 || r >= num_ranks()) {
    return false;
  }
  return ranks_[static_cast<std::size_t>(r)].suspected;
}

void HealthMonitor::update_suspicion(std::uint64_t now_gate) {
  for (rank_t r = 0; r < num_ranks(); ++r) {
    RankState& s = ranks_[static_cast<std::size_t>(r)];
    if (s.dead) {
      continue;
    }
    const double p = phi(r, now_gate);
    if (!s.suspected && p >= kSuspectPhi) {
      s.suspected = true;
      ++stats_.suspicions;
    } else if (s.suspected && p <= kClearPhi) {
      // Only a fresh beat can bring phi back down: this is the clear edge
      // of the hysteresis band.
      s.suspected = false;
      ++stats_.clears;
    }
  }
}

void HealthMonitor::observe(std::uint64_t gate, bool exchanged,
                            const std::vector<rank_t>& missed) {
  const auto is_missed = [&missed](rank_t r) {
    return std::find(missed.begin(), missed.end(), r) != missed.end();
  };
  if (exchanged) {
    // Piggybacked beats: the exchange itself proves every participating
    // rank alive. A rank whose message faulted this gate is withheld.
    for (rank_t r = 0; r < num_ranks(); ++r) {
      if (!ranks_[static_cast<std::size_t>(r)].dead && !is_missed(r)) {
        heartbeat(r, gate);
      }
    }
    last_exchange_gate_ = gate;
  } else if (gate - last_exchange_gate_ >= kProbeCadenceGates) {
    // Idle-period probe: a long local stretch carries no traffic, so poll
    // liveness out of band at a fixed cadence.
    ++stats_.probes;
    for (rank_t r = 0; r < num_ranks(); ++r) {
      if (!ranks_[static_cast<std::size_t>(r)].dead && !is_missed(r)) {
        heartbeat(r, gate);
      }
    }
    last_exchange_gate_ = gate;
  }
  update_suspicion(gate);
}

void HealthMonitor::confirm_failure(rank_t r, std::uint64_t gate) {
  if (r < 0 || r >= num_ranks()) {
    return;
  }
  RankState& s = ranks_[static_cast<std::size_t>(r)];
  if (!s.dead) {
    s.dead = true;
    s.suspected = false;  // not late — gone; suspicion is moot
    s.last_beat = gate;
    ++stats_.confirmed;
  }
}

void HealthMonitor::replacement_arrived(std::uint64_t gate) {
  (void)gate;
  ++stats_.replacements;
}

void HealthMonitor::reset_width(int num_ranks, std::uint64_t gate) {
  QSV_REQUIRE(num_ranks >= 1, "health monitor needs at least one rank");
  RankState fresh;
  fresh.last_beat = gate;
  ranks_.assign(static_cast<std::size_t>(num_ranks), fresh);
  last_exchange_gate_ = gate;
}

}  // namespace qsv
