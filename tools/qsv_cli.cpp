// qsv — command-line front end to the library.
//
//   qsv run <file.qc> [--ranks N] [--shots K] [--seed S]
//                 [--no-sweep] [--tile T] [--deadline-s S]
//                 [--policy blocking|nonblocking|overlapped] [--max-message B]
//                 [--faults PLAN] [--mtbf HOURS]
//                 [--checkpoint-interval GATES] [--checkpoint-dir DIR]
//                 [--guards K] [--spares N] [--recovery TIERS]
//                 [--threads 0|auto|N] [--placement compact|scatter|none]
//                 [--machine (archer2 | overrides.machine)]
//   qsv info <file.qc> --local L [--half-exchange]
//   qsv transpile <file.qc> --local L [--pass cache|greedy|fusion|cleanup]
//                 [--min-reuse K] [--out out.qc]
//   qsv price (<file.qc> | --qft N | --fast-qft N) [--nodes N] [--highmem]
//             [--freq low|medium|high] [--half-exchange]
//             [--policy blocking|nonblocking|overlapped]
//             [--timeline out.csv] [--machine overrides.machine]
//             [--mtbf HOURS] [--checkpoint-interval SECONDS]
//             [--guards K] [--spares N]
//   qsv sbatch --qubits N [--highmem] [--freq ...] [--name J] [--cmd CMD]
//   qsv serve [--socket PATH] [--port N] [--workers N] [--queue N]
//             [--nodes N] [--max-qubits N] [--energy-budget J]
//             [--cache N] [--machine (archer2 | overrides.machine)]
//
// Every subcommand prints a short usage string on error. Exit codes are
// part of the interface (scripts and the CI determinism check key off
// them):
//   0  success
//   1  library/runtime error (qsv::Error or any other exception)
//   2  bad arguments or usage
//   3  degraded completion (the run finished and the digest is valid, but
//      at fewer ranks than planned — a shrink that never grew back)
//   4  unrecovered node failure (NodeFailure escaped every recovery tier)
//   5  integrity abort (recovery budget exhausted or unrecoverable
//      corruption; forensics on stderr)
//   6  deadline exceeded (--deadline-s elapsed; the run was cancelled at a
//      gate boundary and the partial cost was reported)
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "circuit/builders.hpp"
#include "circuit/locality.hpp"
#include "circuit/serialize.hpp"
#include "circuit/transpile/cache_blocking.hpp"
#include "circuit/transpile/cleanup.hpp"
#include "circuit/transpile/fusion.hpp"
#include "circuit/transpile/greedy_cache_blocking.hpp"
#include "common/args.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stop.hpp"
#include "common/table.hpp"
#include "cluster/faults.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/guards.hpp"
#include "dist/recovery_policy.hpp"
#include "dist/resilience.hpp"
#include "dist/trace.hpp"
#include "perf/cost_model.hpp"
#include "perf/resilience_model.hpp"
#include "dist/observables.hpp"
#include "sv/simd/simd.hpp"
#include "harness/experiments.hpp"
#include "machine/archer2.hpp"
#include "machine/config.hpp"
#include "machine/slurm.hpp"
#include "perf/fleet.hpp"
#include "perf/runner.hpp"
#include "serve/server.hpp"

namespace qsv::cli {
namespace {

/// Bad-argument precondition: maps to the usage exit code (2), not the
/// generic error exit (1).
void require_arg(bool ok, const std::string& msg) {
  if (!ok) {
    throw ArgError(msg);
  }
}

/// Ranks and nodes split the register QuEST-style: a power of two.
bool is_pow2_count(int count) {
  return count >= 1 && bits::is_pow2(static_cast<std::uint64_t>(count));
}

/// --nodes: a power of two that leaves every node at least 2 amplitudes.
void require_nodes(int nodes, int qubits) {
  require_arg(is_pow2_count(nodes) &&
                  bits::log2_exact(static_cast<std::uint64_t>(nodes)) < qubits,
              "--nodes must be a power of two leaving each node at least 2 "
              "amplitudes, got " +
                  std::to_string(nodes));
}

/// A register the machine can hold. min_nodes refuses a larger one as a
/// library error; here it is an argument out of range.
void require_fits(const MachineModel& m, int qubits, NodeKind kind) {
  const NodeType& node = m.node(kind);
  const int largest = max_qubits(m, kind);
  require_arg(qubits <= largest,
              std::to_string(qubits) + " qubits do not fit on " +
                  std::to_string(node.available) + " " + node.name +
                  " nodes; the largest register is " +
                  std::to_string(largest) + " qubits");
}

/// --local L (default: the whole register) within [1, qubits].
int local_qubits_arg(const ArgParser& args, int qubits) {
  const int local = args.int_or("local", qubits);
  require_arg(local >= 1 && local <= qubits,
              "--local must be in [1, " + std::to_string(qubits) + "], got " +
                  std::to_string(local));
  return local;
}

CpuFreq parse_freq(const std::string& s) {
  if (s == "low") return CpuFreq::kLow1500;
  if (s == "medium") return CpuFreq::kMedium2000;
  if (s == "high") return CpuFreq::kHigh2250;
  throw ArgError("--freq must be low|medium|high, got '" + s + "'");
}

CommPolicy parse_policy(const std::string& s) {
  if (s == "blocking") return CommPolicy::kBlocking;
  if (s == "nonblocking") return CommPolicy::kNonBlocking;
  if (s == "overlapped") return CommPolicy::kOverlapped;
  throw ArgError("--policy must be blocking|nonblocking|overlapped, got '" +
                 s + "'");
}

/// The largest register `qsv run` and `qsv serve` hold. The functional
/// engines allocate every amplitude: 2^24 of them take 256 MiB.
constexpr int kMaxFunctionalQubits = 24;

/// A register size (--qft, --fast-qft, --qubits) within [1, 62], the
/// widths the library represents.
int register_size_arg(const std::string& text, const std::string& what) {
  return static_cast<int>(parse_int(text, what, 1, 62));
}

int cmd_run(int argc, const char* const* argv) {
  ArgParser args;
  args.option("ranks").option("shots").option("seed").option("tile");
  args.option("faults").option("mtbf").option("checkpoint-interval");
  args.option("checkpoint-dir").option("guards");
  args.option("spares").option("recovery");
  args.option("threads").option("placement").option("machine");
  args.option("policy").option("max-message").option("deadline-s");
  args.flag("no-sweep");
  args.parse(argc, argv);
  require_arg(args.positionals().size() == 1,
              "usage: qsv run <file.qc> ...");

  const Circuit c = load_circuit(args.positionals()[0]);
  require_arg(c.num_qubits() <= kMaxFunctionalQubits,
              std::to_string(c.num_qubits()) +
                  " qubits exceed the functional engines' cap; the largest "
                  "register is " +
                  std::to_string(kMaxFunctionalQubits) + " qubits");
  const int requested_ranks = args.int_or("ranks", 4);
  require_arg(is_pow2_count(requested_ranks),
              "--ranks must be a power of two, got " +
                  std::to_string(requested_ranks));
  // Each rank needs >= 2 amplitudes: clamp for tiny registers.
  const int ranks = std::min(requested_ranks, 1 << (c.num_qubits() - 1));
  const int shots = args.int_or("shots", 0);
  require_arg(shots >= 0, "--shots must be >= 0");

  DistOptions opts;
  opts.sweep.enabled = !args.has("no-sweep");
  opts.sweep.tile_qubits = args.int_or("tile", kDefaultSweepTileQubits);
  require_arg(opts.sweep.tile_qubits >= 1, "--tile must be >= 1");

  // Exchange policy: blocking Sendrecv chain, non-blocking post-all-then-
  // wait, or the overlapped chunk pipeline. --max-message shrinks the MPI
  // message cap (bytes) to force multi-chunk streams on small registers —
  // the determinism checker drives the overlapped pipeline through real
  // chunking with it.
  opts.policy = parse_policy(args.value_or("policy", "blocking"));
  if (const auto cap = args.value("max-message")) {
    const std::int64_t bytes = parse_int(*cap, "--max-message");
    require_arg(bytes >= static_cast<std::int64_t>(kBytesPerAmp),
                "--max-message must be >= one amplitude (16 bytes)");
    opts.max_message_bytes = static_cast<std::size_t>(bytes);
  }

  // Ranks-as-threads: --threads N|auto ("auto" = one thread per rank) and
  // --placement compact|scatter|none. Default 0 keeps the serial engine.
  const std::string threads_s = args.value_or("threads", "0");
  if (threads_s == "auto") {
    opts.threading.threads = ranks;
  } else {
    const std::int64_t threads = parse_int(threads_s, "--threads");
    require_arg(threads == 0 || threads == ranks,
                "--threads must be 0, auto or the rank count (" +
                    std::to_string(ranks) + "), got " + threads_s);
    opts.threading.threads = static_cast<int>(threads);
  }
  const std::string placement_s = args.value_or("placement", "none");
  const std::optional<PlacementPolicy> placement =
      parse_placement_policy(placement_s);
  require_arg(placement.has_value(),
              "--placement must be compact|scatter|none, got '" +
                  placement_s + "'");
  opts.threading.placement = *placement;

  // Fault schedule: explicit --faults specs, plus failures sampled from a
  // per-node MTBF (--mtbf, hours of virtual time at one second per gate).
  FaultPlan plan;
  if (const auto f = args.value("faults")) {
    plan = parse_fault_plan(*f);
  }
  const double mtbf_hours = args.double_or("mtbf", 0);
  require_arg(mtbf_hours >= 0, "--mtbf must be positive");
  if (mtbf_hours > 0) {
    const FaultPlan sampled = sample_node_failures(
        mtbf_hours * 3600, /*seconds_per_gate=*/1.0, c.size(), ranks,
        static_cast<std::uint64_t>(args.int_or("seed", 1)));
    plan.specs.insert(plan.specs.end(), sampled.specs.begin(),
                      sampled.specs.end());
  }
  // Every rank a spec names must exist. A revival takes -1 for "any rank";
  // every other spec names one (rank 0 when the text names none).
  for (const FaultSpec& s : plan.specs) {
    const bool any_rank_ok = s.kind == FaultKind::kRevive;
    require_arg(s.rank < ranks && s.rank >= (any_rank_ok ? -1 : 0),
                "fault spec names rank " + std::to_string(s.rank) +
                    " of a " + std::to_string(ranks) + "-rank run");
  }

  DistStateVector<SoaStorage> sv(c.num_qubits(), ranks, opts);
  std::optional<FaultInjector> injector;
  if (!plan.empty()) {
    injector.emplace(std::move(plan));
    sv.set_fault_injector(&*injector);
  }

  RunSpec spec;
  CheckpointOptions& ck = spec.checkpoint;
  const int interval = args.int_or("checkpoint-interval", 0);
  require_arg(interval >= 0, "--checkpoint-interval must be >= 0");
  ck.interval_gates = static_cast<std::uint64_t>(interval);
  ck.dir = args.value_or("checkpoint-dir", ".");

  GuardOptions& guards = spec.guards;
  const int cadence = args.int_or("guards", 0);
  require_arg(cadence >= 0, "--guards must be >= 0");
  guards.cadence_gates = static_cast<std::uint64_t>(cadence);

  // Elastic recovery: the CLI enables every tier by default (the library
  // default is PR 4 restart-only); --recovery narrows the set.
  ElasticOptions& elastic = spec.elastic;
  elastic.allow_shrink = true;
  elastic.allow_grow_back = true;
  if (const auto tiers = args.value("recovery")) {
    try {
      elastic = parse_recovery_tiers(*tiers);
    } catch (const Error& e) {
      throw ArgError(e.what());
    }
  }
  elastic.spares = args.int_or("spares", 0);
  require_arg(elastic.spares >= 0, "--spares must be >= 0");

  // Machine-derived tier selection: price the circuit on the named machine
  // model and hand choose_tier the closed-form joules, so tier ranking is
  // energy-driven instead of the static cheapest-first order. The expected
  // replay window is half the checkpoint interval (failures land uniformly
  // between checkpoints) at the fault clock's one second per gate. The same
  // machine prices the applied prefix of a run the deadline stops.
  if (const auto machine = args.value("machine")) {
    spec.machine = *machine == "archer2"
                       ? archer2()
                       : load_machine_config(archer2(), *machine);
    JobConfig job;
    job.num_qubits = c.num_qubits();
    job.nodes = ranks;
    const double replay_s =
        interval > 0 ? interval / 2.0 : c.size() / 2.0;
    const TierEnergies te = tier_energies_from_machine(
        spec.machine, job, run_model(c, spec.machine, job, opts), replay_s);
    elastic.substitute_energy_j = te.substitute_j;
    elastic.shrink_energy_j = te.shrink_j;
    elastic.grow_back_energy_j = te.grow_back_j;
    elastic.restart_energy_j = te.restart_j;
    // Raw joules (not the 3-sig-fig pretty form): the chaos-soak harness
    // asserts the strict tier ordering off this line, and nearby tiers can
    // tie at display precision.
    std::cout << "tier energies: substitute=" << fmt::fixed(te.substitute_j, 3)
              << " shrink=" << fmt::fixed(te.shrink_j, 3)
              << " grow-back=" << fmt::fixed(te.grow_back_j, 3)
              << " restart=" << fmt::fixed(te.restart_j, 3) << " (replay "
              << fmt::seconds(te.replay_s) << ", " << *machine << ")\n";
  }

  // The health monitor rides along whenever faults can occur; it is
  // observational, so this changes only the reported stats.
  spec.recovery.health.enabled = injector.has_value();

  // Wall-clock budget: the run stops at the next safe point once the
  // deadline passes, the partial cost is reported, and the process exits
  // with the contractual code 6.
  const double deadline_s = args.double_or("deadline-s", 0);
  require_arg(deadline_s >= 0, "--deadline-s must be >= 0");
  StopToken stop;
  if (deadline_s > 0) {
    stop = StopToken::after_seconds(deadline_s);
  }
  spec.stop = &stop;

  // A NodeFailure that no tier can recover propagates out of here to exit
  // code 4, an IntegrityAbort to 5.
  const RunOutcome out = run_circuit(sv, c, spec);
  if (out.status == RunOutcome::Status::kStopped) {
    std::cout << "deadline: " << out.stop_reason << "\n";
    std::cout << "partial cost: " << out.gates_done << " of " << c.size()
              << " gates applied, modeled "
              << fmt::seconds(out.partial.runtime_s) << ", "
              << fmt::fixed(out.partial.total_energy_j(), 3) << " J\n";
    return 6;
  }
  const IntegrityStats& rec = out.integrity;
  std::cout << "ran '" << c.name() << "' (" << c.size() << " gates) on "
            << ranks << " ranks; " << sv.comm_stats().messages
            << " messages, " << fmt::bytes(sv.comm_stats().bytes) << " ("
            << comm_policy_name(opts.policy) << ")\n";
  std::cout << "kernel backend: " << simd::backend_name(simd::active_backend())
            << " (" << simd::active_backend_origin() << ")\n";
  {
    const auto ts = sv.thread_summary();
    if (ts.enabled) {
      std::cout << "threads: " << ts.threads << " rank threads, placement "
                << placement_policy_name(ts.placement) << ", " << ts.pinned
                << "/" << ts.threads << " pinned, " << ts.domains
                << " NUMA domain(s) over " << ts.cpus << " CPU(s)\n";
    } else {
      std::cout << "threads: off (serial engine)\n";
    }
  }
  if (opts.sweep.enabled && !out.verified) {
    const SweepStats& sw = sv.sweep_stats();
    std::cout << "sweep executor: " << sw.runs << " tiled runs covering "
              << sw.swept_gates << " gates, " << sw.passes_saved
              << " statevector passes saved\n";
  }
  if (injector) {
    const FaultInjector::Totals& ft = injector->totals();
    std::cout << "faults: " << ft.node_failures << " node failures, "
              << ft.dropped << " dropped, " << ft.corrupted << " corrupted, "
              << ft.bitflips << " bitflips, " << ft.straggled
              << " straggled, " << ft.revivals << " revivals; "
              << ft.retries << " retries (" << fmt::bytes(ft.retry_bytes)
              << " re-sent)\n";
    const HealthMonitor::Stats& hs = rec.health;
    std::cout << "health: " << hs.beats << " heartbeats, " << hs.probes
              << " probes, " << hs.suspicions << " suspicions, " << hs.clears
              << " cleared, " << hs.confirmed << " confirmed failures, "
              << hs.replacements << " replacements\n";
  }
  if (guards.enabled()) {
    std::cout << "guards: " << rec.guard_checks << " checks, "
              << rec.guard_violations << " violations, " << rec.rollbacks
              << " rollbacks\n";
  }
  if (ck.interval_gates > 0) {
    std::cout << "recovery: " << rec.restarts << " restarts, "
              << rec.substitutions << " substitutions, " << rec.shrinks
              << " shrinks, " << rec.grow_backs << " grow-backs, "
              << rec.checkpoints_written << " checkpoints written, "
              << rec.gates_replayed << " gates replayed\n";
    if (rec.checkpoint_write_failures > 0) {
      // Tolerated degradation: the run finished, just without the safety
      // net it asked for. Scripts key off this line (exit stays 0).
      std::cout << "checkpoint warning: " << rec.checkpoint_write_failures
                << " write failure(s) tolerated — run continued "
                   "uncheckpointed\n";
    }
    if (rec.shrinks > 0 && sv.num_ranks() < ranks) {
      std::cout << "shrink-to-survive: finished at " << sv.num_ranks()
                << " ranks (started at " << ranks << ")\n";
    } else if (rec.grow_backs > 0) {
      std::cout << "grow-back: restored to " << sv.num_ranks()
                << " ranks after " << rec.shrinks << " shrink(s)\n";
    }
  }
  // Layout-independent digest of the final state (global amplitude order,
  // so it matches across rank counts — including after a shrink). The
  // determinism checker diffs this line across repeated faulted runs.
  std::cout << "state crc32: " << out.digest << "\n";
  // Degraded completion: the run finished and the digest above is valid,
  // but at fewer ranks than planned — a shrink that never grew back.
  // Scripts key off the documented exit code 3 and this line.
  const bool degraded = out.status == RunOutcome::Status::kDegraded;
  if (degraded) {
    std::cout << "degraded: finished at " << rec.final_ranks << " of "
              << rec.planned_ranks << " planned ranks ("
              << rec.degraded_gates << " gates below planned width)\n";
  }
  std::vector<PauliTerm> z(static_cast<std::size_t>(c.num_qubits()));
  for (qubit_t q = 0; q < c.num_qubits(); ++q) {
    z[q].factors = {{q, Pauli::kZ}};
  }
  const std::vector<real_t> z_values = expectations(sv, std::span(z));
  for (qubit_t q = 0; q < c.num_qubits(); ++q) {
    std::cout << "  <Z" << q << "> = " << fmt::fixed(z_values[q], 4) << "\n";
  }
  if (shots > 0) {
    Rng rng(static_cast<std::uint64_t>(args.int_or("seed", 1)));
    // Sample from the gathered state (small registers only, checked above).
    std::map<amp_index, int> histogram =
        sv.gather().sample_counts(shots, rng);
    std::cout << "top outcomes over " << shots << " shots:\n";
    int printed = 0;
    for (int round = 0; round < 5 && printed < 5; ++round) {
      const auto best = std::max_element(
          histogram.begin(), histogram.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      if (best == histogram.end() || best->second == 0) {
        break;
      }
      std::cout << "  |" << best->first << ">: " << best->second << "\n";
      best->second = 0;
      ++printed;
    }
  }
  return degraded ? 3 : 0;
}

int cmd_info(int argc, const char* const* argv) {
  ArgParser args;
  args.option("local").flag("half-exchange");
  args.parse(argc, argv);
  require_arg(args.positionals().size() == 1,
              "usage: qsv info <file.qc> --local L");
  const Circuit c = load_circuit(args.positionals()[0]);
  const int local = local_qubits_arg(args, c.num_qubits());

  const LocalityStats s = analyze_locality(c, local);
  Table t("Locality at L = " + std::to_string(local));
  t.header({"class", "gates"});
  t.row({"fully-local (diagonal)", std::to_string(s.fully_local)});
  t.row({"local-memory", std::to_string(s.local_memory)});
  t.row({"distributed", std::to_string(s.distributed)});
  t.print(std::cout);
  std::cout << "exchange volume per rank: "
            << fmt::bytes(args.has("half-exchange") ? s.exchange_bytes_half
                                                    : s.exchange_bytes_full)
            << "\n";
  return 0;
}

int cmd_transpile(int argc, const char* const* argv) {
  ArgParser args;
  args.option("local").option("pass").option("out").option("min-reuse");
  args.parse(argc, argv);
  require_arg(args.positionals().size() == 1,
              "usage: qsv transpile <file.qc> --local L --pass ...");
  const Circuit c = load_circuit(args.positionals()[0]);
  const int local = local_qubits_arg(args, c.num_qubits());
  const std::string which = args.value_or("pass", "cache");

  std::unique_ptr<Pass> pass;
  if (which == "cache") {
    CacheBlockingOptions o;
    o.local_qubits = local;
    pass = std::make_unique<CacheBlockingPass>(o);
  } else if (which == "greedy") {
    GreedyCacheBlockingOptions o;
    o.local_qubits = local;
    o.min_reuse = args.int_or("min-reuse", 2);
    require_arg(o.min_reuse >= 1, "--min-reuse must be >= 1");
    pass = std::make_unique<GreedyCacheBlockingPass>(o);
  } else if (which == "fusion") {
    pass = std::make_unique<FusionPass>();
  } else if (which == "cleanup") {
    pass = std::make_unique<CleanupPass>();
  } else {
    throw ArgError("--pass must be cache|greedy|fusion|cleanup");
  }

  const Circuit out = pass->run(c);
  const LocalityStats before = analyze_locality(c, local);
  const LocalityStats after = analyze_locality(out, local);
  std::cout << pass->name() << ": " << c.size() << " -> " << out.size()
            << " gates, distributed " << before.distributed << " -> "
            << after.distributed << "\n";
  if (const auto path = args.value("out")) {
    save_circuit(*path, out);
    std::cout << "wrote " << *path << "\n";
  }
  return 0;
}

int cmd_price(int argc, const char* const* argv) {
  ArgParser args;
  args.option("qft").option("fast-qft").option("nodes").option("freq");
  args.option("timeline").option("machine").option("policy");
  args.option("mtbf").option("checkpoint-interval").option("guards");
  args.option("spares");
  args.flag("highmem").flag("half-exchange");
  args.parse(argc, argv);

  // Optional machine-config overrides on top of the ARCHER2 calibration.
  MachineModel m =
      args.value("machine")
          ? load_machine_config(archer2(), *args.value("machine"))
          : archer2();
  if (args.has("mtbf")) {
    const double mtbf_hours = args.double_or("mtbf", 0);
    require_arg(mtbf_hours > 0, "--mtbf must be positive");
    m.reliability.node_mtbf_s = mtbf_hours * 3600;
  }
  const NodeKind kind =
      args.has("highmem") ? NodeKind::kHighMem : NodeKind::kStandard;
  const CpuFreq freq = parse_freq(args.value_or("freq", "medium"));

  Circuit c = [&]() -> Circuit {
    if (const auto n = args.value("qft")) {
      return builtin_qft(register_size_arg(*n, "--qft"));
    }
    if (const auto n = args.value("fast-qft")) {
      const int qubits = register_size_arg(*n, "--fast-qft");
      require_fits(m, qubits, kind);
      const int nodes = args.int_or("nodes", min_nodes(m, qubits, kind));
      require_nodes(nodes, qubits);
      return fast_qft(qubits,
                      qubits - bits::log2_exact(
                                   static_cast<std::uint64_t>(nodes)));
    }
    require_arg(args.positionals().size() == 1,
                "usage: qsv price (<file.qc> | --qft N | --fast-qft N)");
    return load_circuit(args.positionals()[0]);
  }();

  require_fits(m, c.num_qubits(), kind);
  JobConfig job;
  job.num_qubits = c.num_qubits();
  job.node_kind = kind;
  job.freq = freq;
  job.nodes = args.int_or("nodes", min_nodes(m, c.num_qubits(), kind));
  require_nodes(job.nodes, c.num_qubits());
  job.spares = args.int_or("spares", 0);
  require_arg(job.spares >= 0, "--spares must be >= 0");

  DistOptions opts;
  opts.policy = parse_policy(args.value_or("policy", "blocking"));
  opts.half_exchange_swaps = args.has("half-exchange");

  TraceSim sim(c.num_qubits(), job.nodes, opts);
  CostModel cost(m, job);
  const auto timeline_path = args.value("timeline");
  if (timeline_path) {
    cost.enable_timeline();
  }
  sim.set_listener(&cost);
  sim.apply(c);

  // Price of trust: replay the guard schedule run_verified would follow —
  // a check every K gates plus the mandatory end-of-circuit check — as
  // kGuard events against the same cost model.
  const int guard_cadence = args.int_or("guards", 0);
  require_arg(guard_cadence >= 0, "--guards must be >= 0");
  if (guard_cadence > 0) {
    ExecEvent g;
    g.kind = ExecEvent::Kind::kGuard;
    g.local_amps = (amp_index{1} << c.num_qubits()) /
                   static_cast<amp_index>(job.nodes);
    for (std::uint64_t i = static_cast<std::uint64_t>(guard_cadence);
         i < c.size(); i += static_cast<std::uint64_t>(guard_cadence)) {
      cost.on_event(g);
    }
    cost.on_event(g);  // final check at end of circuit
  }

  RunReport r = cost.report();
  r.traffic = sim.comm_stats();

  if (timeline_path) {
    CsvWriter csv(*timeline_path);
    csv.row({"t_start_s", "duration_s", "phase", "power_w"});
    for (const PowerSample& s : cost.timeline()) {
      const char* phase = "local";
      switch (s.phase) {
        case MachineModel::Phase::kMpi: phase = "mpi"; break;
        case MachineModel::Phase::kStall: phase = "stall"; break;
        case MachineModel::Phase::kIo: phase = "io"; break;
        case MachineModel::Phase::kIdle: phase = "idle"; break;
        default: break;
      }
      csv.row({fmt::fixed(s.t_start_s, 4), fmt::fixed(s.duration_s, 4),
               phase, fmt::fixed(s.power_w, 1)});
    }
    std::cout << "timeline written to " << *timeline_path << "\n";
  }

  Table t("ARCHER2 model estimate — " + job.label());
  t.header({"metric", "value"});
  t.row({"gates", std::to_string(r.gates)});
  t.row({"distributed gates", std::to_string(r.distributed_gates)});
  t.row({"runtime", fmt::seconds(r.runtime_s)});
  t.row({"node energy (sacct)", fmt::energy_j(r.node_energy_j)});
  t.row({"switch energy (E_net)", fmt::energy_j(r.switch_energy_j)});
  t.row({"total energy", fmt::energy_j(r.total_energy_j())});
  t.row({"CU cost", fmt::fixed(r.cu, 2)});
  t.row({"MPI fraction", fmt::percent(r.phases.mpi_fraction())});
  if (r.overlapped_exchanges > 0) {
    t.row({"overlapped exchanges", std::to_string(r.overlapped_exchanges)});
    t.row({"overlap saved", fmt::seconds(r.overlap_saved_s)});
  }
  if (r.guard_checks > 0) {
    t.row({"guard checks", std::to_string(r.guard_checks)});
    t.row({"guard time", fmt::seconds(r.guard_s)});
    t.row({"guard energy (price of trust)", fmt::energy_j(r.guard_energy_j)});
  }
  t.print(std::cout);

  // Expected-energy pricing under failures, around the Daly optimum.
  if (args.has("mtbf") || args.has("checkpoint-interval")) {
    QSV_REQUIRE(m.reliability.node_mtbf_s > 0,
                "expected-energy pricing needs a finite MTBF "
                "(--mtbf or a machine config with reliability.node_mtbf_s)");
    const double mtbf = m.system_mtbf_s(job.nodes);
    const double delta = checkpoint_write_s(m, job.num_qubits);
    const double tau_opt = daly_interval_s(mtbf, delta);

    Table rt("Expected run under failures (system MTBF " +
             fmt::seconds(mtbf) + ", checkpoint write " +
             fmt::seconds(delta) + ")");
    rt.header({"interval", "E[failures]", "E[wall]", "ckpt I/O", "lost work",
               "restart", "E[energy]"});
    auto add = [&](double interval_s, const std::string& label) {
      const ExpectedRun er = expected_run(m, job, r, interval_s);
      rt.row({label, fmt::fixed(er.expected_failures, 3),
              fmt::seconds(er.wall_s), fmt::seconds(er.checkpoint_io_s),
              fmt::seconds(er.lost_work_s), fmt::seconds(er.restart_s),
              fmt::energy_j(er.expected_energy_j())});
    };
    add(0.0, "none");
    if (args.has("checkpoint-interval")) {
      const double requested = args.double_or("checkpoint-interval", 0);
      require_arg(requested > 0, "--checkpoint-interval must be positive");
      add(requested, fmt::seconds(requested));
    }
    add(tau_opt, fmt::seconds(tau_opt) + " (Daly opt)");
    std::cout << "\n";
    rt.print(std::cout);

    // Per-failure cost of each elastic recovery tier, with the expected
    // replay window (half the Daly interval — failures land uniformly
    // between checkpoints). This is the table choose_tier's static
    // cheapest-first order is calibrated against.
    const double replay_s = tau_opt / 2;
    const RecoveryEnergy tiers[] = {
        expected_substitute(m, job, r, replay_s),
        expected_shrink(m, job, r, replay_s),
        expected_grow_back(m, job, r, replay_s),
        expected_restart(m, job, r, replay_s),
    };
    Table tt("Per-failure recovery cost by tier (replay = half the Daly "
             "interval)");
    tt.header({"tier", "time", "energy", "vs restart"});
    for (const RecoveryEnergy& e : tiers) {
      tt.row({recovery_tier_name(e.tier), fmt::seconds(e.time_s),
              fmt::energy_j(e.energy_j),
              fmt::fixed(e.energy_j / tiers[3].energy_j, 3)});
    }
    if (job.spares > 0) {
      tt.row({"spare pool (" + std::to_string(job.spares) + ", solve)",
              fmt::seconds(r.runtime_s),
              fmt::energy_j(spare_pool_energy_j(m, job, job.spares,
                                                r.runtime_s)),
              "-"});
    }
    std::cout << "\n";
    tt.print(std::cout);

    // Whole-run strategy comparison: per-failure cost times the expected
    // failure count, plus what each strategy pays on the side — the spare
    // pool's standing idle draw (substitute), or the degraded tail's extra
    // switch-hours (shrink with no grow-back; the expected tail is half the
    // solve — failures land uniformly in the run).
    const ExpectedRun at_opt = expected_run(m, job, r, tau_opt);
    const double n_fail = at_opt.expected_failures;
    const TierEnergies te = tier_energies_from_machine(m, job, r, replay_s);
    const double pool_j = spare_pool_energy_j(
        m, job, std::max(1, job.spares), r.runtime_s);
    const double tail_j = degraded_tail_extra_j(m, job, r.runtime_s / 2);
    Table st("Recovery strategy over the run (E[failures] = " +
             fmt::fixed(n_fail, 3) + ")");
    st.header({"strategy", "per-failure", "standing/tail", "E[total]"});
    auto strategy = [&](const std::string& name, double per_j,
                        double side_j) {
      st.row({name, fmt::energy_j(per_j), fmt::energy_j(side_j),
              fmt::energy_j(n_fail * per_j + side_j)});
    };
    strategy("restart from checkpoint", te.restart_j, 0.0);
    strategy("substitute (spare pool idles)", te.substitute_j, pool_j);
    strategy("shrink, stay degraded", te.shrink_j, tail_j);
    strategy("shrink, grow back on arrival", te.grow_back_j, 0.0);
    std::cout << "\n";
    st.print(std::cout);
  }
  return 0;
}

int cmd_sbatch(int argc, const char* const* argv) {
  ArgParser args;
  args.option("qubits").option("freq").option("name").option("cmd");
  args.flag("highmem");
  args.parse(argc, argv);
  const auto qubits_s = args.value("qubits");
  require_arg(qubits_s.has_value(), "usage: qsv sbatch --qubits N ...");
  const int qubits = register_size_arg(*qubits_s, "--qubits");

  const MachineModel m = archer2();
  const NodeKind kind =
      args.has("highmem") ? NodeKind::kHighMem : NodeKind::kStandard;
  require_fits(m, qubits, kind);
  const JobConfig job =
      make_min_job(m, qubits, kind, parse_freq(args.value_or("freq",
                                                             "medium")));
  slurm::SbatchOptions opts;
  opts.job_name = args.value_or("name", "qsv");
  std::cout << slurm::render_sbatch_script(
      job, opts, args.value_or("cmd", "./qsv_sim " + std::to_string(qubits)));
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  ArgParser args;
  args.option("socket").option("port").option("workers").option("queue");
  args.option("nodes").option("max-qubits").option("energy-budget");
  args.option("cache").option("machine");
  args.parse(argc, argv);
  require_arg(args.positionals().empty(),
              "usage: qsv serve [--socket PATH] [--port N] ...");

  serve::ServerOptions so;
  so.socket_path = args.value_or("socket", "qsv-serve.sock");
  so.tcp_port = args.int_or("port", so.tcp_port);
  require_arg(so.tcp_port >= 0 && so.tcp_port <= 65535,
              "--port must be in [0, 65535]");
  so.workers = args.int_or("workers", so.workers);
  require_arg(so.workers >= 1, "--workers must be >= 1");
  const int queue =
      args.int_or("queue", static_cast<int>(so.queue_capacity));
  require_arg(queue >= 1, "--queue must be >= 1");
  so.queue_capacity = static_cast<std::size_t>(queue);
  const int cache =
      args.int_or("cache", static_cast<int>(so.plan_cache_capacity));
  require_arg(cache >= 0, "--cache must be >= 0");
  so.plan_cache_capacity = static_cast<std::size_t>(cache);
  so.limits.nodes = args.int_or("nodes", so.limits.nodes);
  require_arg(so.limits.nodes >= 1, "--nodes must be >= 1");
  so.limits.max_qubits = args.int_or("max-qubits", so.limits.max_qubits);
  require_arg(so.limits.max_qubits >= 1 &&
                  so.limits.max_qubits <= kMaxFunctionalQubits,
              "--max-qubits must be in [1, " +
                  std::to_string(kMaxFunctionalQubits) +
                  "] (functional engine cap)");
  so.limits.energy_budget_j =
      args.double_or("energy-budget", so.limits.energy_budget_j);
  require_arg(so.limits.energy_budget_j >= 0,
              "--energy-budget must be >= 0 (0 = unlimited)");

  const std::string machine_s = args.value_or("machine", "archer2");
  const MachineModel m = machine_s == "archer2"
                             ? archer2()
                             : load_machine_config(archer2(), machine_s);

  // The self-pipe is the only async-signal-safe drain trigger: SIGTERM and
  // SIGINT write one byte, serve_until's poll wakes, the drain runs.
  const int wake_fd = serve::make_signal_wake_fd();
  serve::Server server(m, so);
  server.start();
  std::cout << "serving on " << so.socket_path;
  if (server.bound_tcp_port() > 0) {
    std::cout << " and 127.0.0.1:" << server.bound_tcp_port();
  }
  std::cout << " (" << so.workers << " workers, queue " << so.queue_capacity
            << ", " << so.limits.nodes << " nodes, cap "
            << so.limits.max_qubits << " qubits, plan cache "
            << so.plan_cache_capacity << ", " << machine_s << ")\n"
            << std::flush;
  server.serve_until(wake_fd);

  // Drain banner: the fleet table is the service's closing cost report.
  std::cout << FleetMetrics::render(server.fleet());
  const serve::PlanCacheStats cs = server.cache_stats();
  std::cout << "plan cache: " << cs.hits << " hits, " << cs.misses
            << " misses, " << cs.transpiles << " transpiles, "
            << cs.evictions << " evictions, " << cs.entries
            << " entries\n";
  std::cout << "drained cleanly\n";
  return 0;
}

int usage() {
  std::cerr
      << "usage: qsv <command> ...\n"
      << "  run       run a circuit file functionally on a virtual cluster\n"
      << "            (--no-sweep disables cache-tiled multi-gate sweeps,\n"
      << "             --tile T sets the tile exponent, default 15;\n"
      << "             --faults/--mtbf inject failures (--faults\n"
      << "             bitflip@G[:R[:B]] injects silent corruption),\n"
      << "             --checkpoint-interval and --checkpoint-dir enable\n"
      << "             checkpoint/restart\n"
      << "             (one file, DIR/checkpoint.qsv, removed at exit),\n"
      << "             --guards K checks the norm every K gates;\n"
      << "             --spares N holds spare nodes for substitution,\n"
      << "             --recovery retry,substitute,shrink,grow-back,restart\n"
      << "             picks the allowed recovery tiers (default all), and\n"
      << "             --machine archer2|overrides.machine derives the\n"
      << "             tier-selection energies from the machine model)\n"
      << "            env QSV_SIMD=scalar|avx2|avx512|auto pins the SIMD\n"
      << "            kernel backend (default: best the CPU supports)\n"
      << "            --policy blocking|nonblocking|overlapped picks the\n"
      << "            exchange flavour (default blocking)\n"
      << "            --threads N|auto runs each rank on its own OS thread\n"
      << "            (N must equal the rank count);\n"
      << "            --placement compact|scatter|none pins rank threads\n"
      << "            and their slices to NUMA domains\n"
      << "  info      locality & communication analysis of a circuit file\n"
      << "  transpile apply a pass (cache|greedy|fusion|cleanup)\n"
      << "  price     estimate runtime/energy/CU on the ARCHER2 model\n"
      << "            (--mtbf adds expected-energy and per-failure\n"
      << "             recovery-tier tables, --spares prices the spare\n"
      << "             pool's standing cost)\n"
      << "  sbatch    print the SLURM job script for a register size\n"
      << "  serve     long-lived local job server (newline-delimited JSON\n"
      << "            over a Unix socket and/or --port on loopback TCP;\n"
      << "            admission control, bounded queue with load-shedding,\n"
      << "            per-job deadlines, transpiled-plan cache; SIGTERM/\n"
      << "            SIGINT drain gracefully and print the fleet table)\n"
      << "exit codes: 0 ok, 1 error, 2 bad arguments, 3 degraded completion\n"
      << "(finished below planned width), 4 unrecovered node failure,\n"
      << "5 integrity abort, 6 deadline exceeded (--deadline-s; partial\n"
      << "cost reported)\n";
  return 2;
}

int main(int argc, const char* const* argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") return cmd_run(argc - 1, argv + 1);
    if (cmd == "info") return cmd_info(argc - 1, argv + 1);
    if (cmd == "transpile") return cmd_transpile(argc - 1, argv + 1);
    if (cmd == "price") return cmd_price(argc - 1, argv + 1);
    if (cmd == "sbatch") return cmd_sbatch(argc - 1, argv + 1);
    if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
  } catch (const DeadlineExceeded& e) {
    // A deadline that fired outside cmd_run's partial-cost path (it is an
    // Error subtype, so it must be caught first). Documented exit code 6.
    std::cerr << "qsv: deadline exceeded: " << e.what() << "\n";
    return 6;
  } catch (const IntegrityAbort& e) {
    // Recovery budget exhausted or unrecoverable corruption: forensics
    // (rank, gate, cause) are in the message. Documented exit code 5.
    std::cerr << "qsv: integrity abort: " << e.what() << "\n";
    return 5;
  } catch (const NodeFailure& e) {
    // A node failure no recovery tier could absorb. Documented exit code 4.
    std::cerr << "qsv: node failure: " << e.what() << "\n";
    return 4;
  } catch (const ArgError& e) {
    std::cerr << "qsv: " << e.what() << "\n";
    return 2;
  } catch (const Error& e) {
    std::cerr << "qsv: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    // Anything the library didn't type (filesystem errors, bad_alloc, ...):
    // still a one-line message and a nonzero exit, never a raw trace.
    std::cerr << "qsv: " << e.what() << "\n";
    return 1;
  }
  return usage();
}

}  // namespace
}  // namespace qsv::cli

int main(int argc, char** argv) { return qsv::cli::main(argc, argv); }
