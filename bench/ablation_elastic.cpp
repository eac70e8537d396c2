// Ablation: elastic grow-back under chaos. Two claims are exercised:
//
//  1. Functional: a 16-seed matrix of deterministic fault schedules — node
//     loss, message drop/straggle/corruption, silent bitflips, replacement
//     arrivals — driven through run_verified with every tier enabled lands
//     bit-identically on the clean state, every seed. Seeds with a revive
//     finish back at the planned width; seeds without stay degraded.
//  2. Economic: the machine-derived per-failure tier energies at the
//     paper's headline configurations (43q/2048, 44q/4096) rank strictly
//     substitute < shrink < grow-back < restart, which is what makes
//     choose_tier's static fallback order honest.
//
// Exits nonzero on any digest mismatch or ordering violation, so the
// chaos-soak CI job can gate on it directly.
#include <filesystem>
#include <iostream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "cluster/faults.hpp"
#include "common/format.hpp"
#include "dist/dist_statevector.hpp"
#include "dist/recovery_policy.hpp"
#include "harness/experiments.hpp"
#include "machine/job.hpp"
#include "perf/resilience_model.hpp"
#include "perf/runner.hpp"

namespace qsv {
namespace {

/// The elastic reference workload (mirrors tests/test_elastic.cpp):
/// distributed gates in [0, 10), a rank-local tail in [10, 20), so failures
/// in the tail are recoverable by every tier from the gate-10 checkpoint.
Circuit elastic_circuit() {
  Circuit c(6, "elastic_chaos");
  c.add(make_h(4));
  c.add(make_h(0));
  c.add(make_cx(0, 1));
  c.add(make_rz(1, 0.37));
  c.add(make_h(2));
  c.add(make_cx(2, 3));
  c.add(make_h(5));
  c.add(make_rx(3, 0.81));
  c.add(make_cz(0, 2));
  c.add(make_ry(1, 1.13));
  for (int i = 0; i < 5; ++i) {
    c.add(make_rz(i % 4, 0.29 + 0.11 * i));
    c.add(make_cx((i + 1) % 4, (i + 2) % 4));
  }
  return c;
}

/// Deterministic seed-derived schedule: a node loss in the recoverable tail,
/// a message fault early on (drop, straggle or corruption, rotating by
/// seed), a silent bitflip on some seeds, and a replacement arrival on even
/// seeds. Arithmetic on the seed, no RNG: the same seed always yields the
/// same schedule, so the soak is replayable.
std::string chaos_schedule(int seed, bool* expect_grow_back) {
  const int fail_gate = 11 + seed % 7;           // in [11, 17]
  const int fail_rank = 1 + seed % 3;            // ranks 1..3
  std::string plan = "fail@" + std::to_string(fail_gate) + ":" +
                     std::to_string(fail_rank);
  switch (seed % 3) {
    case 0: plan += ", drop@2"; break;
    case 1: plan += ", delay@2:0.05"; break;
    default: plan += ", corrupt@2"; break;
  }
  if (seed % 5 == 0) {
    // Silent corruption in an exponent bit (62), placed so a guard check
    // (cadence 2) fires before the node failure: the norm guard detects at
    // gate 8 and rolls back to the gate-5 checkpoint. Low-mantissa flips
    // are the guard layer's documented escape case (drift below the norm
    // tolerance), so the soak exercises the detectable class.
    plan += ", bitflip@7:0:62";
  }
  *expect_grow_back = seed % 2 == 0;
  if (*expect_grow_back) {
    plan += ", revive@" + std::to_string(fail_gate + 2);
  }
  return plan;
}

/// A directory removed, with everything in it, when the guard goes out of
/// scope.
struct RemovedOnExit {
  explicit RemovedOnExit(std::filesystem::path p) : path(std::move(p)) {}
  RemovedOnExit(const RemovedOnExit&) = delete;
  RemovedOnExit& operator=(const RemovedOnExit&) = delete;
  ~RemovedOnExit() {
    std::error_code ec;  // best effort: a leftover directory is not a failure
    std::filesystem::remove_all(path, ec);
  }

  std::filesystem::path path;
};

}  // namespace
}  // namespace qsv

int main(int argc, char** argv) {
  using namespace qsv;
  bench::print_header(
      "elastic grow-back chaos matrix + machine-derived tier ordering");
  auto json = bench::JsonReport::from_args(argc, argv);
  int status = 0;

  const Circuit c = elastic_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  Table t("16-seed chaos matrix (6 qubits / 4 ranks, all tiers enabled)");
  t.header({"seed", "schedule", "tiers", "final ranks", "digest"});
  int grow_backs_total = 0;
  int degraded_total = 0;
  for (int seed = 1; seed <= 16; ++seed) {
    bool expect_grow_back = false;
    const std::string schedule = chaos_schedule(seed, &expect_grow_back);
    FaultInjector inj(parse_fault_plan(schedule));
    DistStateVector<SoaStorage> sv(6, 4);
    sv.set_fault_injector(&inj);

    // run_verified clears the checkpoint files but not their directory;
    // the guard removes it when this seed's iteration ends, either way.
    const RemovedOnExit ck_dir(std::filesystem::temp_directory_path() /
                               ("qsv_chaos_seed_" + std::to_string(seed)));
    CheckpointOptions ck;
    ck.interval_gates = 5;
    ck.dir = ck_dir.path.string();
    GuardOptions guards;
    guards.cadence_gates = 2;
    RecoveryPolicy policy;
    policy.health.enabled = true;
    ElasticOptions elastic;
    elastic.allow_shrink = true;
    elastic.allow_grow_back = true;
    elastic.spares = seed % 4 == 0 ? 1 : 0;  // some seeds substitute instead

    IntegrityStats stats;
    try {
      stats = run_verified(sv, c, ck, guards, policy, elastic);
    } catch (const Error& e) {
      std::cerr << "FAIL seed " << seed << " (" << schedule
                << "): " << e.what() << "\n";
      status = 1;
      continue;
    }

    bool identical = stats.completed;
    for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
      identical = identical && clean.amplitude(i) == sv.amplitude(i);
    }
    if (!identical) {
      std::cerr << "FAIL seed " << seed << " (" << schedule
                << "): digest diverged from the clean run\n";
      status = 1;
    }
    if (expect_grow_back && elastic.spares == 0 &&
        stats.final_ranks != stats.planned_ranks) {
      std::cerr << "FAIL seed " << seed
                << ": revive scheduled but the run finished at "
                << stats.final_ranks << "/" << stats.planned_ranks
                << " ranks\n";
      status = 1;
    }
    grow_backs_total += stats.grow_backs;
    degraded_total += stats.final_ranks < stats.planned_ranks ? 1 : 0;

    // Appended piecewise: GCC 12 misreports an operator+ chain here as an
    // overlapping memcpy (-Wrestrict, GCC bug 105329).
    std::string tiers;
    for (const RecoveryTier tier : stats.tiers_used) {
      if (!tiers.empty()) {
        tiers += ',';
      }
      tiers += recovery_tier_name(tier);
    }
    t.row({std::to_string(seed), schedule, tiers.empty() ? "-" : tiers,
           std::to_string(stats.final_ranks),
           identical ? "identical" : "DIVERGED"});
  }
  t.print(std::cout);
  json.add("chaos_seeds", 16, "runs");
  json.add("chaos_grow_backs", grow_backs_total, "re-shards");
  json.add("chaos_degraded_runs", degraded_total, "runs");

  // Machine-derived tier energies at the headline configurations: the
  // strict substitute < shrink < grow-back < restart ordering.
  std::cout << "\n";
  const MachineModel m = archer2();
  Table et("Machine-derived per-failure tier energies (replay = half the "
           "Daly interval)");
  et.header({"config", "substitute", "shrink", "grow-back", "restart",
             "ordered"});
  for (const auto& [qubits, nodes] :
       std::vector<std::pair<int, int>>{{43, 2048}, {44, 4096}}) {
    JobConfig job;
    job.num_qubits = qubits;
    job.node_kind = NodeKind::kStandard;
    job.freq = CpuFreq::kMedium2000;
    job.nodes = nodes;
    const RunReport base = run_model(builtin_qft(qubits), m, job, {});
    const double tau_opt = daly_interval_s(m.system_mtbf_s(nodes),
                                           checkpoint_write_s(m, qubits));
    const TierEnergies e =
        tier_energies_from_machine(m, job, base, tau_opt / 2);
    const bool ordered = e.substitute_j < e.shrink_j &&
                         e.shrink_j < e.grow_back_j &&
                         e.grow_back_j < e.restart_j;
    if (!ordered) {
      std::cerr << "FAIL " << qubits << "q/" << nodes
                << ": tier energies are not strictly ordered\n";
      status = 1;
    }
    const std::string tag = std::to_string(qubits) + "q";
    json.add(tag + "_substitute_j", e.substitute_j, "J");
    json.add(tag + "_shrink_j", e.shrink_j, "J");
    json.add(tag + "_grow_back_j", e.grow_back_j, "J");
    json.add(tag + "_restart_j", e.restart_j, "J");
    et.row({std::to_string(qubits) + "q/" + std::to_string(nodes),
            fmt::energy_j(e.substitute_j), fmt::energy_j(e.shrink_j),
            fmt::energy_j(e.grow_back_j), fmt::energy_j(e.restart_j),
            ordered ? "yes" : "NO"});
  }
  et.print(std::cout);
  json.write("ablation_elastic");

  bench::print_note(
      "every seed's schedule is pure arithmetic on the seed index, so the "
      "matrix is replayable; even seeds carry a revive and must finish at "
      "the planned width, odd seeds without a spare stay degraded — both "
      "must land on the clean run's exact amplitudes. The energy table is "
      "the machine-model justification for the tier order the recovery "
      "policy uses when no closed-form figures are supplied.");
  return status;
}
