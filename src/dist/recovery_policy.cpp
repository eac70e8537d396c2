#include "dist/recovery_policy.hpp"

#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "dist/plan.hpp"
#include "dist/snapshot.hpp"

namespace qsv {

TierDecision choose_tier(const ElasticOptions& opts, const TierContext& ctx) {
  struct Candidate {
    RecoveryTier tier;
    double energy_j;
  };
  // Built in the static cheapest-first order, so when no energies are
  // supplied the front of the list is the pick.
  std::vector<Candidate> feasible;
  std::string why_not;
  auto reject = [&](const char* tier, const std::string& why) {
    if (!why_not.empty()) {
      why_not += "; ";
    }
    why_not += std::string(tier) + ": " + why;
  };

  if (!opts.allow_substitute) {
    reject("substitute", "disabled");
  } else if (ctx.spares_left <= 0) {
    reject("substitute", "no spare node left");
  } else if (!ctx.checkpoint_exists) {
    reject("substitute", "no checkpoint to rebuild from");
  } else if (!ctx.checkpoint_geometry_matches) {
    reject("substitute", "checkpoint predates a re-shard (geometry mismatch)");
  } else if (!ctx.clean_boundary) {
    reject("substitute", "failure not at a clean gate boundary");
  } else if (!ctx.window_replayable) {
    reject("substitute", "replay window contains distributed gates");
  } else {
    feasible.push_back({RecoveryTier::kSubstitute, opts.substitute_energy_j});
  }

  // Shrink and grow-back share the same immediate action (re-shard to half
  // width) and therefore the same feasibility facts; they are mutually
  // exclusive candidates for one failure. Grow-back — shrink now, re-expand
  // when the expected replacement arrives — supersedes plain shrink
  // whenever it is enabled and an arrival is expected.
  auto reshard_infeasible = [&]() -> std::string {
    if (ctx.num_ranks < 2) {
      return "already down to one rank";
    }
    if (!ctx.checkpoint_exists) {
      return "no checkpoint to rebuild from";
    }
    if (!ctx.checkpoint_geometry_matches) {
      return "checkpoint predates a re-shard (geometry mismatch)";
    }
    if (!ctx.clean_boundary) {
      return "failure not at a clean gate boundary";
    }
    if (!ctx.window_replayable) {
      return "replay window contains distributed gates";
    }
    return "";
  };
  const std::string reshard_why = reshard_infeasible();
  const bool grow_back_ok = opts.allow_grow_back &&
                            ctx.replacement_expected && reshard_why.empty();

  if (!opts.allow_shrink) {
    reject("shrink", "disabled");
  } else if (!reshard_why.empty()) {
    reject("shrink", reshard_why);
  } else if (grow_back_ok) {
    reject("shrink", "superseded by grow-back (a replacement is expected)");
  } else {
    feasible.push_back({RecoveryTier::kShrink, opts.shrink_energy_j});
  }

  if (!opts.allow_grow_back) {
    reject("grow-back", "disabled");
  } else if (!ctx.replacement_expected) {
    reject("grow-back", "no replacement arrival expected");
  } else if (!reshard_why.empty()) {
    reject("grow-back", reshard_why);
  } else {
    feasible.push_back({RecoveryTier::kGrowBack, opts.grow_back_energy_j});
  }

  if (!opts.allow_restart) {
    reject("restart", "disabled");
  } else if (!ctx.checkpoint_exists) {
    reject("restart", "no checkpoint to restart from");
  } else {
    feasible.push_back({RecoveryTier::kRestart, opts.restart_energy_j});
  }

  if (feasible.empty()) {
    return {false, RecoveryTier::kRestart, "no feasible tier: " + why_not};
  }

  // Energy-informed choice only when every feasible tier is priced;
  // comparing a priced tier against an unknown one would be a guess.
  bool all_priced = true;
  for (const Candidate& cand : feasible) {
    all_priced = all_priced && cand.energy_j >= 0;
  }
  Candidate pick = feasible.front();
  if (all_priced) {
    for (const Candidate& cand : feasible) {
      if (cand.energy_j < pick.energy_j) {
        pick = cand;  // ties keep the statically cheaper tier
      }
    }
  }

  std::ostringstream reason;
  reason << recovery_tier_name(pick.tier);
  if (all_priced) {
    reason << " is cheapest by expected energy (" << pick.energy_j << " J of";
    for (const Candidate& cand : feasible) {
      reason << ' ' << recovery_tier_name(cand.tier) << '=' << cand.energy_j;
    }
    reason << ')';
  } else {
    reason << " is first in the static cheapest-first order";
  }
  if (!why_not.empty()) {
    reason << "; infeasible: " << why_not;
  }
  return {true, pick.tier, reason.str()};
}

ElasticOptions parse_recovery_tiers(const std::string& text) {
  ElasticOptions opts;
  opts.allow_substitute = false;
  opts.allow_shrink = false;
  opts.allow_restart = false;
  std::istringstream in(text);
  std::string raw;
  bool any = false;
  while (std::getline(in, raw, ',')) {
    const auto b = raw.find_first_not_of(" \t");
    if (b == std::string::npos) {
      continue;
    }
    const auto e = raw.find_last_not_of(" \t");
    const std::string tier = raw.substr(b, e - b + 1);
    any = true;
    if (tier == "retry") {
      // Engine-level bounded re-exchange: always on, nothing to enable.
    } else if (tier == "substitute") {
      opts.allow_substitute = true;
    } else if (tier == "shrink") {
      opts.allow_shrink = true;
    } else if (tier == "grow-back") {
      opts.allow_grow_back = true;
    } else if (tier == "restart") {
      opts.allow_restart = true;
    } else {
      QSV_REQUIRE(false,
                  "unknown recovery tier '" + tier +
                      "' (want retry|substitute|shrink|grow-back|restart)");
    }
  }
  QSV_REQUIRE(any, "empty recovery tier list");
  return opts;
}

template <class S>
IntegrityStats run_verified(DistStateVector<S>& sv, const Circuit& c,
                            const CheckpointOptions& ck,
                            const GuardOptions& guards,
                            const RecoveryPolicy& policy,
                            const ElasticOptions& elastic,
                            const StopToken* stop) {
  QSV_REQUIRE(c.num_qubits() == sv.num_qubits(), "register size mismatch");
  IntegrityStats stats;
  StateGuard<S> guard(sv, guards);
  stats.planned_ranks = sv.num_ranks();
  stats.final_ranks = sv.num_ranks();
  FaultInjector* const inj = sv.fault_injector();

  // Observational failure detection: heartbeats are piggybacked on the
  // exchanges the run performs anyway, an idle probe covers local
  // stretches, and the injector's per-gate fault log tells the monitor
  // which senders missed their beat. Never consulted for decisions.
  HealthMonitor monitor(sv.num_ranks());
  std::size_t fault_log_seen = inj != nullptr ? inj->log().size() : 0;

  int spares_left = elastic.spares;
  auto emit_recovery = [&](const ExecEvent& e) {
    if (ExecListener* listener = sv.listener()) {
      listener->on_event(e);
    }
  };

  // A checkpoint write failure must not abort a healthy simulation: log it,
  // price the abandoned attempt as a kWarning event, and keep going without
  // further writes. The last committed snapshot stays the rollback target.
  bool ckpt_writable = true;
  auto warn_ckpt_failure = [&](const std::string& what) {
    ckpt_writable = false;
    ++stats.checkpoint_write_failures;
    QSV_WARN("checkpoint write failed, continuing uncheckpointed: " << what);
    ExecEvent w;
    w.kind = ExecEvent::Kind::kWarning;
    w.local_amps = sv.local_amps();
    w.participating_fraction = 1.0;
    w.warning_io_bytes =
        (std::uint64_t{1} << sv.num_qubits()) * kBytesPerAmp;
    emit_recovery(w);
  };

  bool checkpointing = ck.interval_gates > 0;
  std::optional<CheckpointStore> store;
  if (checkpointing) {
    try {
      store.emplace(ck.dir.empty() ? std::string(".") : ck.dir, ck.keep_last);
    } catch (const std::exception& e) {
      // Unwritable/uncreatable directory: no store at all, so no rollback
      // target either — recovery semantics degrade to checkpointing-off.
      checkpointing = false;
      warn_ckpt_failure(e.what());
    }
  }
  auto drop_ckpt = [&] {
    if (checkpointing) {
      store->clear();
    }
  };
  int ckpt_ranks = sv.num_ranks();  // rank width the checkpoint was taken at
  bool have_ckpt = false;  // at least one snapshot committed successfully
  auto save_ckpt = [&](std::size_t gates) -> bool {
    if (!ckpt_writable) {
      return false;
    }
    try {
      save_state(store->path_for(gates), sv);
    } catch (const Error& e) {
      warn_ckpt_failure(e.what());
      return false;
    }
    store->committed(gates);
    have_ckpt = true;
    ckpt_ranks = sv.num_ranks();
    ++stats.checkpoints_written;
    // Fingerprint what we just trusted to disk, so a restore can prove it
    // came back intact.
    guard.capture_signature();
    return true;
  };

  std::size_t ckpt_gate = 0;  // circuit gates completed at the checkpoint
  if (checkpointing) {
    // Initial checkpoint: a failure before the first interval boundary
    // still has a rollback target.
    save_ckpt(0);
  }

  // Rolls back to the last verified checkpoint after a detection. A restore
  // that fails its own signature check is unsalvageable: reloading the same
  // bytes cannot do better, so that converts straight into an abort.
  std::size_t i = 0;
  auto roll_back = [&] {
    sv.reset_transport();
    if (inj != nullptr) {
      inj->restart();
    }
    load_state(store->path_for(ckpt_gate), sv);
    try {
      guard.verify_restore(ckpt_gate == 0 ? 0 : ckpt_gate - 1);
    } catch (const GuardViolation& v) {
      drop_ckpt();
      throw IntegrityAbort(
          "integrity abort: rollback target is itself corrupt (rank " +
              std::to_string(v.rank()) + ", gate " + std::to_string(v.gate()) +
              "): " + v.what(),
          v.rank(), v.gate(), v.what());
    }
    stats.gates_replayed += i - ckpt_gate;
    i = ckpt_gate;
  };

  // Full restart tier: the PR 2 path, now also priced as a kRecovery event
  // (one full-state read, every node active through the reload).
  auto restart_tier = [&] {
    ++stats.restarts;
    stats.tiers_used.push_back(RecoveryTier::kRestart);
    if (stats.restarts > kMaxRestarts) {
      drop_ckpt();
      return false;
    }
    const std::uint64_t lost = i - ckpt_gate;
    roll_back();
    ExecEvent e;
    e.kind = ExecEvent::Kind::kRecovery;
    e.recovery_tier = RecoveryTier::kRestart;
    e.local_amps = sv.local_amps();
    e.participating_fraction = 1.0;
    e.recovery_io_bytes = (std::uint64_t{1} << sv.num_qubits()) * kBytesPerAmp;
    e.recovery_replayed_gates = lost;
    emit_recovery(e);
    return true;
  };

  // Rebuilds rank `dead`'s slice from the last checkpoint and replays the
  // window [ckpt_gate, i) on that rank alone — the survivors keep their
  // position. Shared by the substitute and shrink tiers; the caller
  // guarantees the window is solo-replayable (choose_tier checked).
  auto rebuild_rank = [&](rank_t dead) {
    load_rank_slice(store->path_for(ckpt_gate), sv, dead);
    for (std::size_t j = ckpt_gate; j < i; ++j) {
      sv.apply_to_rank(c.gate(j), dead);
    }
    stats.gates_replayed += i - ckpt_gate;
  };

  // Re-shard to half width: the immediate action shared by the shrink and
  // grow-back tiers (they differ only in whether a later replacement
  // arrival re-expands the run). Falls back to the restart tier when the
  // re-shard itself faults; returns false when even that budget is gone.
  std::size_t degraded_from = 0;  // circuit gate the run last fell below plan
  auto reshard_now = [&](rank_t dead, RecoveryTier label) {
    try {
      // No spare: rebuild the dead slice in place (its new host is the
      // surviving pair member), catch it up, then re-shard to half the
      // ranks. The re-shard traffic flows through the live cluster —
      // counted, priced, and itself subject to faults.
      sv.rebind_rank(dead);
      const std::uint64_t replayed = i - ckpt_gate;
      rebuild_rank(dead);
      const ReshardPlan rp = sv.shrink_to_half(dead);
      if (inj != nullptr) {
        // Ranks renumber under the new decomposition: the dead set (old
        // numbering) is meaningless now. Fault specs always refer to the
        // current numbering.
        inj->restart();
      }
      // The per-rank checkpoint signature describes the old width;
      // verify_restore no-ops until the next checkpoint recaptures.
      guard.invalidate_signature();
      ++stats.shrinks;
      stats.tiers_used.push_back(label);
      stats.final_ranks = sv.num_ranks();
      degraded_from = i;
      if (policy.health.enabled) {
        monitor.reset_width(sv.num_ranks(), sv.gates_applied());
      }

      ExecEvent io;
      io.kind = ExecEvent::Kind::kRecovery;
      io.recovery_tier = label;
      io.local_amps = sv.local_amps();
      io.participating_fraction = 1.0 / static_cast<double>(rp.old_ranks);
      io.recovery_io_bytes = rp.rebuild_io_bytes;
      io.recovery_replayed_gates = replayed;
      emit_recovery(io);
      if (rp.moving_pairs > 0) {
        ExecEvent net;
        net.kind = ExecEvent::Kind::kRecovery;
        net.recovery_tier = label;
        net.local_amps = sv.local_amps();
        net.participating_fraction = 2.0 *
                                     static_cast<double>(rp.moving_pairs) /
                                     static_cast<double>(rp.old_ranks);
        net.recovery_bytes_per_rank = rp.bytes_per_move;
        net.recovery_messages_per_rank = rp.messages_per_move;
        net.policy = sv.options().policy;
        emit_recovery(net);
      }
    } catch (const Error&) {
      // The re-shard itself faulted (or a plan constraint bit at execution
      // time): fall through to the restart tier, which rebuilds everything
      // from the checkpoint.
      if (!restart_tier()) {
        return false;
      }
    }
    return true;
  };

  // One observation per completed gate: the gate's exchange (if any) is the
  // heartbeat carrier, and any sender whose message faulted during it is
  // withheld — that is what accrues suspicion.
  auto observe_health = [&](const Gate& applied) {
    if (!policy.health.enabled) {
      return;
    }
    std::vector<rank_t> missed;
    if (inj != nullptr) {
      const std::vector<FaultEvent>& log = inj->log();
      for (std::size_t k = fault_log_seen; k < log.size(); ++k) {
        const FaultEvent& e = log[k];
        if (e.kind == FaultKind::kDropMessage ||
            e.kind == FaultKind::kCorruptMessage ||
            e.kind == FaultKind::kStraggler) {
          missed.push_back(e.rank);
        }
      }
      fault_log_seen = log.size();
    }
    monitor.observe(sv.gates_applied(), !sv.gate_runs_local(applied), missed);
  };

  // Drains the replacement-arrival stream and, when the run is below its
  // planned width and the grow-back tier is enabled, re-expands toward it.
  // A handoff fault past the retry budget leaves the run at the last
  // consistent width (degraded, not dead) — every completed doubling
  // stands.
  auto poll_replacements = [&] {
    if (inj == nullptr) {
      return;
    }
    const std::size_t arrived = inj->take_revivals(sv.gates_applied());
    if (arrived == 0) {
      return;
    }
    stats.revivals += arrived;
    if (policy.health.enabled) {
      fault_log_seen = inj->log().size();  // revive events are not misses
      for (std::size_t k = 0; k < arrived; ++k) {
        monitor.replacement_arrived(sv.gates_applied());
      }
    }
    if (!elastic.allow_grow_back || sv.num_ranks() >= stats.planned_ranks) {
      return;
    }
    const int before = sv.num_ranks();
    try {
      while (sv.num_ranks() < stats.planned_ranks) {
        const GrowBackPlan gp = sv.grow_back_double();
        ++stats.grow_backs;
        stats.tiers_used.push_back(RecoveryTier::kGrowBack);
        // One net-phase recovery event per doubling: every survivor ships
        // its absorbed half and every revived rank receives one, so the
        // whole cluster participates. No io phase — unlike the shrink
        // direction nothing is read from the checkpoint, the data is
        // already resident in survivor memory.
        ExecEvent net;
        net.kind = ExecEvent::Kind::kRecovery;
        net.recovery_tier = RecoveryTier::kGrowBack;
        net.local_amps = sv.local_amps();
        net.participating_fraction = 1.0;
        net.recovery_bytes_per_rank = gp.bytes_per_move;
        net.recovery_messages_per_rank = gp.messages_per_move;
        net.policy = sv.options().policy;
        emit_recovery(net);
      }
    } catch (const Error&) {
      // Movement faulted past the retry budget: stay at the current width.
    }
    if (sv.num_ranks() != before) {
      // Same renumbering contract as the shrink direction.
      inj->restart();
      guard.invalidate_signature();
      stats.final_ranks = sv.num_ranks();
      if (policy.health.enabled) {
        monitor.reset_width(sv.num_ranks(), sv.gates_applied());
        fault_log_seen = inj->log().size();
      }
    }
  };

  while (i < c.size()) {
    // Deadline/cancel poll at the gate boundary — the safe point where
    // every rank's slice reflects the same circuit prefix. The partial
    // state is left intact for the caller to digest and price.
    if (stop != nullptr && stop->possible() && stop->expired()) {
      drop_ckpt();
      const bool cancelled = stop->cancelled();
      throw DeadlineExceeded(
          std::string(cancelled ? "cancelled" : "deadline exceeded") +
              " at gate " + std::to_string(i) + " of " +
              std::to_string(c.size()),
          i, c.size(), cancelled);
    }
    // Engine gate count before this circuit gate: a boundary failure whose
    // gate_index still equals this fired before any sub-gate of the
    // expansion ran, so the surviving slices are at the circuit boundary.
    const std::uint64_t g0 = sv.gates_applied();
    try {
      sv.apply(c.gate(i));
      ++i;
      observe_health(c.gate(i - 1));
      // Replacement arrivals are polled (and any grow-back runs) before the
      // guard/checkpoint block, so a checkpoint landing on the same gate is
      // written at the restored width — keeping the rank-slice tiers armed
      // for the rest of the run.
      poll_replacements();
      const bool at_ckpt =
          checkpointing && i % ck.interval_gates == 0 && i < c.size();
      if (guards.enabled() && (guard.due(i) || at_ckpt || i == c.size())) {
        guard.check(i - 1);
      }
      if (at_ckpt && save_ckpt(i)) {
        // Advance the rollback target only on a committed write: after a
        // tolerated failure the run keeps the last good snapshot.
        ckpt_gate = i;
      }
    } catch (const NodeFailure& f) {
      if (!checkpointing || !have_ckpt) {
        ++stats.restarts;
        throw;  // PR 2 semantics: nothing to recover from
      }

      if (policy.health.enabled) {
        monitor.confirm_failure(f.rank(), sv.gates_applied());
        if (inj != nullptr) {
          fault_log_seen = inj->log().size();
        }
      }

      TierContext tc;
      tc.clean_boundary = f.at_gate_boundary() && f.gate_index() == g0;
      tc.checkpoint_exists = true;
      tc.checkpoint_geometry_matches = ckpt_ranks == sv.num_ranks();
      tc.replacement_expected =
          inj != nullptr && inj->pending_revivals() > 0;
      tc.spares_left = spares_left;
      tc.num_ranks = sv.num_ranks();
      bool replayable = tc.clean_boundary;
      for (std::size_t j = ckpt_gate; j < i && replayable; ++j) {
        replayable = sv.gate_runs_local(c.gate(j));
      }
      tc.window_replayable = replayable;

      const TierDecision decision = choose_tier(elastic, tc);
      if (!decision.feasible) {
        ++stats.restarts;
        drop_ckpt();
        throw;
      }

      const rank_t dead = f.rank();
      switch (decision.tier) {
        case RecoveryTier::kSubstitute: {
          // A spare takes over the rank id: rebind its mailboxes, mark the
          // slot alive again, rebuild the slice from the checkpoint and
          // replay it solo up to the failing gate. The survivors never
          // move, so only 1/R of the machine computes during catch-up.
          sv.rebind_rank(dead);
          if (inj != nullptr) {
            inj->revive(dead);
          }
          const std::uint64_t slice_bytes =
              static_cast<std::uint64_t>(sv.local_amps()) * kBytesPerAmp;
          rebuild_rank(dead);
          ++stats.substitutions;
          ++stats.spares_used;
          --spares_left;
          stats.tiers_used.push_back(RecoveryTier::kSubstitute);
          ExecEvent e;
          e.kind = ExecEvent::Kind::kRecovery;
          e.recovery_tier = RecoveryTier::kSubstitute;
          e.local_amps = sv.local_amps();
          e.participating_fraction =
              1.0 / static_cast<double>(sv.num_ranks());
          e.recovery_io_bytes = slice_bytes;
          e.recovery_replayed_gates = i - ckpt_gate;
          emit_recovery(e);
          break;  // the loop re-runs gate i with every rank caught up
        }
        case RecoveryTier::kShrink: {
          if (!reshard_now(dead, RecoveryTier::kShrink)) {
            throw;
          }
          break;
        }
        case RecoveryTier::kGrowBack: {
          // The immediate action is the shrink; the tier's second half
          // (the re-expand) fires when poll_replacements drains the
          // expected arrival.
          if (!reshard_now(dead, RecoveryTier::kGrowBack)) {
            throw;
          }
          break;
        }
        case RecoveryTier::kRestart: {
          if (!restart_tier()) {
            throw;
          }
          break;
        }
        case RecoveryTier::kRetry:
          QSV_REQUIRE(false, "retry is an engine tier, not a driver one");
      }
    } catch (const GuardViolation& v) {
      ++stats.rollbacks;
      if (!checkpointing || !have_ckpt) {
        throw IntegrityAbort(
            "integrity abort at gate " + std::to_string(v.gate()) +
                " (rank " + std::to_string(v.rank()) +
                "): no checkpoint to roll back to: " + v.what(),
            v.rank(), v.gate(), v.what());
      }
      if (stats.rollbacks > kMaxRollbacks) {
        drop_ckpt();
        throw IntegrityAbort(
            "integrity abort at gate " + std::to_string(v.gate()) +
                " (rank " + std::to_string(v.rank()) + "): " +
                std::to_string(kMaxRollbacks) +
                " rollbacks exhausted: " + v.what(),
            v.rank(), v.gate(), v.what());
      }
      roll_back();
    }
  }

  stats.completed = true;
  stats.final_ranks = sv.num_ranks();
  if (stats.final_ranks < stats.planned_ranks) {
    stats.degraded_gates = c.size() - degraded_from;
  }
  stats.guard_checks = guard.stats().checks;
  stats.guard_violations = guard.stats().violations;
  stats.health = monitor.stats();
  if (inj != nullptr) {
    stats.faults = inj->log();
  }
  drop_ckpt();
  return stats;
}

template IntegrityStats run_verified<SoaStorage>(DistStateVector<SoaStorage>&,
                                                 const Circuit&,
                                                 const CheckpointOptions&,
                                                 const GuardOptions&,
                                                 const RecoveryPolicy&,
                                                 const ElasticOptions&,
                                                 const StopToken*);

}  // namespace qsv
