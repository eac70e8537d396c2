#include "perf/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "circuit/builders.hpp"
#include "circuit/serialize.hpp"
#include "cluster/faults.hpp"
#include "common/error.hpp"
#include "machine/archer2.hpp"
#include "perf/cost_model.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

const MachineModel& m() {
  static const MachineModel model = archer2();
  return model;
}

TEST(Runner, ModelAndFunctionalAgreeOnCosts) {
  // Small enough to run functionally; the trace-priced report must match
  // the functionally-priced one in every cost field.
  JobConfig job;
  job.num_qubits = 10;
  job.node_kind = NodeKind::kStandard;
  job.nodes = 8;
  const Circuit qft = build_qft(10);

  DistOptions opts;
  opts.max_message_bytes = 256;
  const RunReport a = run_model(qft, m(), job, opts);
  DistStateVector<SoaStorage> sim(qft.num_qubits(), job.nodes, opts);
  CostModel cost(m(), job);
  sim.set_listener(&cost);
  sim.apply(qft);
  RunReport b = cost.report();
  b.traffic = sim.comm_stats();

  EXPECT_DOUBLE_EQ(a.runtime_s, b.runtime_s);
  EXPECT_DOUBLE_EQ(a.node_energy_j, b.node_energy_j);
  EXPECT_DOUBLE_EQ(a.switch_energy_j, b.switch_energy_j);
  EXPECT_EQ(a.gates, b.gates);
  EXPECT_EQ(a.distributed_gates, b.distributed_gates);
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
  EXPECT_EQ(a.traffic.bytes, b.traffic.bytes);
}

TEST(Runner, RegisterMismatchThrows) {
  JobConfig job;
  job.num_qubits = 12;
  job.nodes = 4;
  EXPECT_THROW((void)run_model(build_qft(10), m(), job), Error);
}

TEST(Runner, ReportCountsGates) {
  JobConfig job;
  job.num_qubits = 38;
  job.nodes = 64;
  const RunReport r = run_model(build_hadamard_bench(38, 37, 50), m(), job);
  EXPECT_EQ(r.gates, 50u);
  EXPECT_EQ(r.distributed_gates, 50u);
  EXPECT_GT(r.time_per_gate(), 9.0);
  EXPECT_GT(r.energy_per_gate(), 150e3);
}

TEST(Runner, CuScalesWithNodesAndRuntime) {
  JobConfig job;
  job.num_qubits = 38;
  job.nodes = 64;
  const RunReport r = run_model(build_hadamard_bench(38, 5, 72), m(), job);
  EXPECT_NEAR(r.cu, 64.0 * r.runtime_s / 3600.0, 1e-9);
}

// --- run_circuit ------------------------------------------------------------

/// 20 gates on 6 qubits / 4 ranks: gates 0 and 6 are distributed, gates
/// 10..19 local only, so a failure at gate 12 with checkpoints every 5
/// gates can be recovered by shrinking to 2 ranks.
Circuit six_qubit_circuit() {
  Circuit c(6, "six");
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

/// Raises `cancel` once the engine has applied `gates` gates.
class CancelAfter final : public ExecListener {
 public:
  CancelAfter(const DistStateVector<SoaStorage>& sv, std::uint64_t gates,
              std::atomic<bool>& cancel)
      : sv_(sv), gates_(gates), cancel_(cancel) {}
  void on_event(const ExecEvent&) override {
    if (sv_.gates_applied() >= gates_) {
      cancel_.store(true);
    }
  }

 private:
  const DistStateVector<SoaStorage>& sv_;
  std::uint64_t gates_;
  std::atomic<bool>& cancel_;
};

TEST(RunCircuit, StateDigestIsTheQsvRunDigestAtEveryWidth) {
  // `qsv run` prints this digest for the 3-qubit GHZ circuit.
  const Circuit ghz = parse_circuit("qubits 3\nh 0\ncx 0 1\ncx 1 2\n");
  for (const int ranks : {1, 2, 4}) {
    DistStateVector<SoaStorage> sv(3, ranks);
    sv.apply(ghz);
    EXPECT_EQ(state_digest(sv), "b649bfda") << ranks << " ranks";
  }
}

TEST(RunCircuit, PlainAndVerifiedPathsLandOnOneDigest) {
  const Circuit c = six_qubit_circuit();
  DistStateVector<SoaStorage> plain(6, 4);
  const RunSpec defaults;
  const RunOutcome a = run_circuit(plain, c, defaults);
  EXPECT_EQ(a.status, RunOutcome::Status::kOk);
  EXPECT_FALSE(a.verified);
  EXPECT_EQ(a.gates_done, c.size());
  EXPECT_EQ(a.digest, state_digest(plain));

  DistStateVector<SoaStorage> guarded(6, 4);
  RunSpec spec;
  spec.guards.cadence_gates = 3;
  const RunOutcome b = run_circuit(guarded, c, spec);
  EXPECT_EQ(b.status, RunOutcome::Status::kOk);
  EXPECT_TRUE(b.verified);
  EXPECT_GT(b.integrity.guard_checks, 0u);
  EXPECT_EQ(b.digest, a.digest);
}

TEST(RunCircuit, StopBeforeTheFirstGatePricesNothing) {
  std::atomic<bool> cancel{true};
  StopToken stop;
  stop.set_cancel_flag(&cancel);
  RunSpec spec;
  spec.stop = &stop;
  DistStateVector<SoaStorage> sv(6, 4);
  const RunOutcome out = run_circuit(sv, six_qubit_circuit(), spec);
  EXPECT_EQ(out.status, RunOutcome::Status::kStopped);
  EXPECT_EQ(out.gates_done, 0u);
  EXPECT_EQ(out.stop_reason, "cancelled at gate 0 of 20");
  EXPECT_TRUE(out.digest.empty());
  EXPECT_EQ(out.partial.runtime_s, 0.0);
}

TEST(RunCircuit, StoppedRunHoldsThePrefixAndPricesIt) {
  const Circuit c = six_qubit_circuit();
  DistStateVector<SoaStorage> sv(6, 4);
  std::atomic<bool> cancel{false};
  CancelAfter listener(sv, 7, cancel);
  sv.set_listener(&listener);
  StopToken stop;
  stop.set_cancel_flag(&cancel);
  RunSpec spec;
  spec.guards.cadence_gates = 1;  // the verified path polls every gate
  spec.stop = &stop;
  const RunOutcome out = run_circuit(sv, c, spec);
  ASSERT_EQ(out.status, RunOutcome::Status::kStopped);
  ASSERT_GT(out.gates_done, 0u);
  ASSERT_LT(out.gates_done, c.size());

  Circuit prefix(6);
  for (std::uint64_t g = 0; g < out.gates_done; ++g) {
    prefix.add(c.gate(g));
  }
  DistStateVector<SoaStorage> ref(6, 4);
  ref.apply(prefix);
  EXPECT_EQ(state_digest(sv), state_digest(ref));
  JobConfig job;
  job.num_qubits = 6;
  job.nodes = 4;
  EXPECT_DOUBLE_EQ(out.partial.runtime_s,
                   run_model(prefix, m(), job).runtime_s);
  EXPECT_DOUBLE_EQ(out.partial.total_energy_j(),
                   run_model(prefix, m(), job).total_energy_j());
}

TEST(RunCircuit, ShrinkThatNeverGrowsBackIsDegraded) {
  const Circuit c = six_qubit_circuit();
  DistStateVector<SoaStorage> clean(6, 4);
  clean.apply(c);

  FaultInjector inj(parse_fault_plan("fail@12:1"));
  DistStateVector<SoaStorage> sv(6, 4);
  sv.set_fault_injector(&inj);
  RunSpec spec;
  spec.checkpoint.interval_gates = 5;
  const test::ScratchDir scratch("run_circuit_shrink");
  spec.checkpoint.dir = scratch.path();
  spec.elastic.allow_shrink = true;  // no spares: shrink is the only tier
  const RunOutcome out = run_circuit(sv, c, spec);
  EXPECT_EQ(out.status, RunOutcome::Status::kDegraded);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.integrity.shrinks, 1);
  EXPECT_EQ(out.integrity.final_ranks, 2);
  EXPECT_EQ(out.digest, state_digest(clean));
}

}  // namespace
}  // namespace qsv
