#include "dist/recovery_policy.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <system_error>

#include "common/error.hpp"
#include "common/log.hpp"
#include "dist/plan.hpp"
#include "dist/snapshot.hpp"

namespace qsv {

std::optional<RecoveryTier> choose_tier(const ElasticOptions& opts,
                                        const TierContext& ctx) {
  struct Candidate {
    RecoveryTier tier;
    double energy_j;
  };
  // Built in the static cheapest-first order, so when no energies are
  // supplied the front of the list is the pick.
  std::vector<Candidate> feasible;

  // The rank-slice tiers rebuild one rank from the checkpoint and replay
  // the window on it alone.
  const bool slice_rebuild_ok = ctx.checkpoint_exists &&
                                ctx.checkpoint_geometry_matches &&
                                ctx.clean_boundary && ctx.window_replayable;
  if (opts.allow_substitute && ctx.spares_left > 0 && slice_rebuild_ok) {
    feasible.push_back({RecoveryTier::kSubstitute, opts.substitute_energy_j});
  }

  // Shrink and grow-back share the same immediate action (re-shard to half
  // width) and therefore the same feasibility facts; they are mutually
  // exclusive candidates for one failure. Grow-back — shrink now, re-expand
  // when the expected replacement arrives — supersedes plain shrink
  // whenever it is enabled and an arrival is expected.
  const bool reshard_ok = ctx.num_ranks >= 2 && slice_rebuild_ok;
  const bool grow_back_ok =
      opts.allow_grow_back && ctx.replacement_expected && reshard_ok;
  if (opts.allow_shrink && reshard_ok && !grow_back_ok) {
    feasible.push_back({RecoveryTier::kShrink, opts.shrink_energy_j});
  }
  if (grow_back_ok) {
    feasible.push_back({RecoveryTier::kGrowBack, opts.grow_back_energy_j});
  }

  if (opts.allow_restart && ctx.checkpoint_exists) {
    feasible.push_back({RecoveryTier::kRestart, opts.restart_energy_j});
  }

  if (feasible.empty()) {
    return std::nullopt;
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
  return pick.tier;
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
  auto emit = [&](const ExecEvent& e) {
    if (ExecListener* listener = sv.listener()) {
      listener->on_event(e);
    }
  };
  // Emits one recovery action's kRecovery events: an io phase when
  // `io_bytes` are read back from the checkpoint on `io_fraction` of the
  // machine, then, for a re-shard whose pairs move, a network phase on the
  // 2 * moving_pairs wide ranks that send or receive. The last event
  // carries `retries`: the retries and backoff of a re-shard's moves, or of
  // the exchange a restart recovers.
  auto emit_recovery = [&](RecoveryTier tier, std::uint64_t io_bytes,
                           double io_fraction, std::uint64_t replayed,
                           const ReshardPlan& rp = {},
                           const FaultInjector::GateFaultCharges& retries =
                               {}) {
    ExecEvent e;
    e.kind = ExecEvent::Kind::kRecovery;
    e.recovery_tier = tier;
    e.local_amps = sv.local_amps();
    const auto carry_retries = [&](ExecEvent& last) {
      last.policy = sv.options().policy;
      last.retry_bytes = retries.retry_bytes;
      last.retry_messages = retries.retry_messages;
      last.fault_delay_s = retries.delay_s;
    };
    if (io_bytes > 0) {
      ExecEvent io = e;
      io.participating_fraction = io_fraction;
      io.recovery_io_bytes = io_bytes;
      io.recovery_replayed_gates = replayed;
      if (rp.moving_pairs == 0) {
        carry_retries(io);
      }
      emit(io);
    }
    if (rp.moving_pairs > 0) {
      e.participating_fraction =
          2.0 * static_cast<double>(rp.moving_pairs) /
          static_cast<double>(std::max(rp.old_ranks, rp.new_ranks));
      e.recovery_bytes_per_rank = rp.bytes_per_move;
      e.recovery_messages_per_rank = rp.messages_per_move;
      carry_retries(e);
      emit(e);
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
    emit(w);
  };

  // One checkpoint file per run: each commit replaces it through
  // save_state's temp file and atomic rename, every restore reads it, and
  // the run removes it and any temp file when it returns or throws. Files
  // an earlier process left under these names are removed first; nothing
  // reads them.
  struct CheckpointFile {
    CheckpointFile() = default;
    CheckpointFile(const CheckpointFile&) = delete;
    CheckpointFile& operator=(const CheckpointFile&) = delete;
    ~CheckpointFile() { remove(); }
    void remove() const {
      if (!path.empty()) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        std::filesystem::remove(path + ".tmp", ec);
      }
    }
    std::string path;
  } ckpt_file;
  bool checkpointing = ck.interval_gates > 0;
  if (checkpointing) {
    const std::string dir = ck.dir.empty() ? std::string(".") : ck.dir;
    try {
      std::filesystem::create_directories(dir);
      ckpt_file.path = dir + "/checkpoint.qsv";
      ckpt_file.remove();
    } catch (const std::exception& e) {
      // Uncreatable directory: no rollback target either — recovery
      // semantics degrade to checkpointing-off.
      checkpointing = false;
      warn_ckpt_failure(e.what());
    }
  }
  int ckpt_ranks = sv.num_ranks();  // rank width the checkpoint was taken at
  bool have_ckpt = false;  // at least one snapshot committed successfully
  auto save_ckpt = [&]() -> bool {
    if (!ckpt_writable) {
      return false;
    }
    try {
      save_state(ckpt_file.path, sv);
    } catch (const Error& e) {
      // save_state left the last commit, if any, as it was.
      warn_ckpt_failure(e.what());
      return false;
    }
    have_ckpt = true;
    ckpt_ranks = sv.num_ranks();
    ++stats.checkpoints_written;
    return true;
  };

  std::size_t ckpt_gate = 0;  // circuit gates completed at the checkpoint
  if (checkpointing) {
    // Initial checkpoint: a failure before the first interval boundary
    // still has a rollback target.
    save_ckpt();
  }

  // Runs `load`, a read of the checkpoint into rank `rank`'s slice (-1: the
  // whole register). A read that fails verification leaves nothing to
  // recover from: reading the same bytes again cannot do better.
  auto read_ckpt = [&](rank_t rank, const auto& load) {
    try {
      load();
    } catch (const Error& e) {
      throw IntegrityAbort(
          "integrity abort: the checkpoint of gate " +
              std::to_string(ckpt_gate) + " failed verification (rank " +
              std::to_string(rank) + "): " + e.what(),
          rank, ckpt_gate, e.what());
    }
  };

  // Rolls back to the last verified checkpoint after a detection.
  std::size_t i = 0;
  auto roll_back = [&] {
    sv.reset_transport();
    if (inj != nullptr) {
      inj->restart();
    }
    read_ckpt(-1, [&] { load_state(ckpt_file.path, sv); });
    stats.gates_replayed += i - ckpt_gate;
    i = ckpt_gate;
  };

  // Full restart tier, priced as a kRecovery event (one full-state read,
  // every node active through the reload) that also carries the retries
  // still pending: those of the exchange or re-shard move whose failure
  // led here.
  auto restart_tier = [&] {
    ++stats.restarts;
    stats.tiers_used.push_back(RecoveryTier::kRestart);
    if (stats.restarts > kMaxRestarts) {
      return false;
    }
    const std::uint64_t lost = i - ckpt_gate;
    roll_back();
    emit_recovery(RecoveryTier::kRestart,
                  (std::uint64_t{1} << sv.num_qubits()) * kBytesPerAmp, 1.0,
                  lost, {},
                  inj != nullptr ? inj->take_gate_charges()
                                 : FaultInjector::GateFaultCharges{});
    return true;
  };

  // Rebinds rank `dead`'s mailboxes, rebuilds its slice from the last
  // checkpoint and replays the window [ckpt_gate, i) on that rank alone —
  // the survivors keep their position. Shared by the substitute and shrink
  // tiers; the caller guarantees the window is solo-replayable (choose_tier
  // checked).
  auto rebuild_rank = [&](rank_t dead) {
    sv.rebind_rank(dead);
    read_ckpt(dead, [&] { load_rank_slice(ckpt_file.path, sv, dead); });
    for (std::size_t j = ckpt_gate; j < i; ++j) {
      sv.apply_to_rank(c.gate(j), dead);
    }
    stats.gates_replayed += i - ckpt_gate;
  };

  // Re-shards to `new_ranks` and emits its events; throws, leaving the
  // engine at its old width, when a move faults past the retry budget. The
  // network event carries the moves' own retries: charges pending from
  // before are set aside for the next gate event. Ranks renumber, so the
  // injector's dead set is reset.
  auto reshard = [&](int new_ranks, rank_t rebuilt, RecoveryTier label,
                     std::uint64_t replayed) {
    const FaultInjector::GateFaultCharges earlier =
        inj != nullptr ? inj->take_gate_charges()
                       : FaultInjector::GateFaultCharges{};
    FaultInjector::GateFaultCharges moves;
    ReshardPlan rp;
    try {
      rp = sv.reshard(new_ranks, rebuilt);
    } catch (...) {
      if (inj != nullptr) {
        inj->put_back_gate_charges(earlier);
      }
      throw;
    }
    if (inj != nullptr) {
      moves = inj->take_gate_charges();
      inj->put_back_gate_charges(earlier);
      inj->restart();
    }
    emit_recovery(label, rp.rebuild_io_bytes,
                  1.0 / static_cast<double>(rp.old_ranks), replayed, rp,
                  moves);
    stats.final_ranks = sv.num_ranks();
    if (policy.health.enabled) {
      monitor.reset_width(sv.num_ranks(), sv.gates_applied());
    }
  };

  // Re-shard to half width: the immediate action shared by the shrink and
  // grow-back tiers (they differ only in whether a later replacement
  // arrival re-expands the run). No spare: the dead slice is rebuilt in
  // place, its new host being the surviving pair member. Falls back to the
  // restart tier when a re-shard move faults past its retry budget; returns
  // false when even that budget is gone.
  std::size_t degraded_from = 0;  // circuit gate the run last fell below plan
  auto reshard_now = [&](rank_t dead, RecoveryTier label) {
    rebuild_rank(dead);
    try {
      reshard(sv.num_ranks() / 2, dead, label, i - ckpt_gate);
      ++stats.shrinks;
      stats.tiers_used.push_back(label);
      degraded_from = i;
    } catch (const Error&) {
      // A move exhausted its retries (or a plan constraint bit): the restart
      // tier rebuilds everything from the checkpoint.
      if (!restart_tier()) {
        return false;
      }
    }
    return true;
  };

  // One observation per completed circuit gate, at `gate`, the engine gate
  // count after it: the gate's exchange (if any) is the heartbeat carrier,
  // and any sender whose message faulted during it is withheld — that is
  // what accrues suspicion.
  auto observe_health = [&](const Gate& applied, std::uint64_t gate) {
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
    monitor.observe(gate, !sv.gate_runs_local(applied), missed);
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
        // Every pair moves and nothing is read from the checkpoint: the
        // data is resident in survivor memory.
        reshard(sv.num_ranks() * 2, -1, RecoveryTier::kGrowBack, 0);
        ++stats.grow_backs;
        stats.tiers_used.push_back(RecoveryTier::kGrowBack);
      }
    } catch (const Error&) {
      // Movement faulted past the retry budget: stay at the current width.
    }
    if (sv.num_ranks() != before) {
      fault_log_seen = inj->log().size();  // handoff faults are not misses
    }
  };

  // The first circuit-gate boundary after `from` where the loop acts: a
  // guard check, a checkpoint or the end of the circuit. No run crosses one.
  auto next_boundary = [&](std::size_t from) {
    std::uint64_t end = c.size();
    if (guards.enabled()) {
      const std::uint64_t every = guards.cadence_gates;
      end = std::min(end, (from / every + 1) * every);
    }
    if (checkpointing) {
      const std::uint64_t every = ck.interval_gates;
      end = std::min(end, (from / every + 1) * every);
    }
    return static_cast<std::size_t>(end);
  };

  while (i < c.size()) {
    // Deadline/cancel poll at the run boundary — the safe point where
    // every rank's slice reflects the same circuit prefix. The partial
    // state is left intact for the caller to digest and price.
    if (stop != nullptr && stop->expired()) {
      const bool cancelled = stop->cancelled();
      throw DeadlineExceeded(
          std::string(cancelled ? "cancelled" : "deadline exceeded") +
              " at gate " + std::to_string(i) + " of " +
              std::to_string(c.size()),
          i, c.size(), cancelled);
    }
    // Engine gate count before this run: a boundary failure whose
    // gate_index still equals this fired before any work of the run, so
    // the surviving slices are at the circuit boundary.
    const std::uint64_t g0 = sv.gates_applied();
    try {
      // A sweep run or one gate, cut where a gate-indexed fault fires or
      // falls due, so what follows sees every gate as it would gate by gate.
      const GateRun run = sv.next_run(c, i, next_boundary(i));
      sv.apply_run(c, run);
      for (std::size_t k = 1; k <= run.count; ++k, ++i) {
        // Each gate of a sweep run is one engine gate.
        observe_health(c.gate(i), sv.gates_applied() - (run.count - k));
      }
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
      if (at_ckpt && save_ckpt()) {
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

      const std::optional<RecoveryTier> tier = choose_tier(elastic, tc);
      if (!tier) {
        ++stats.restarts;
        throw;
      }

      const rank_t dead = f.rank();
      switch (*tier) {
        case RecoveryTier::kSubstitute: {
          // A spare takes over the rank id: rebind its mailboxes, mark the
          // slot alive again, rebuild the slice from the checkpoint and
          // replay it solo up to the failing gate. The survivors never
          // move, so only 1/R of the machine computes during catch-up.
          if (inj != nullptr) {
            inj->revive(dead);
          }
          rebuild_rank(dead);
          ++stats.substitutions;
          --spares_left;
          stats.tiers_used.push_back(RecoveryTier::kSubstitute);
          emit_recovery(RecoveryTier::kSubstitute,
                        static_cast<std::uint64_t>(sv.local_amps()) *
                            kBytesPerAmp,
                        1.0 / static_cast<double>(sv.num_ranks()),
                        i - ckpt_gate);
          break;  // the loop resumes at gate i with every rank caught up
        }
        case RecoveryTier::kShrink:
        case RecoveryTier::kGrowBack: {
          // Grow-back's immediate action is the shrink; its re-expand fires
          // when poll_replacements drains the expected arrival.
          if (!reshard_now(dead, *tier)) {
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
        throw IntegrityAbort("integrity abort at gate " +
                                 std::to_string(v.gate()) +
                                 " (rank -1): no checkpoint to roll back to: " +
                                 v.what(),
                             -1, v.gate(), v.what());
      }
      if (stats.rollbacks > kMaxRollbacks) {
        throw IntegrityAbort("integrity abort at gate " +
                                 std::to_string(v.gate()) + " (rank -1): " +
                                 std::to_string(kMaxRollbacks) +
                                 " rollbacks exhausted: " + v.what(),
                             -1, v.gate(), v.what());
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
