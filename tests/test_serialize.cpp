#include "circuit/serialize.hpp"

#include <gtest/gtest.h>


#include "circuit/builders.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sv/statevector.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

void expect_same_gates(const Circuit& a, const Circuit& b) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.gate(i), b.gate(i)) << "gate " << i << ": "
                                    << a.gate(i).str() << " vs "
                                    << b.gate(i).str();
  }
}

TEST(Serialize, RoundTripsEveryGateKind) {
  Circuit c(6, "everything");
  c.add(make_h(0))
      .add(make_x(1))
      .add(make_y(2))
      .add(make_z(3))
      .add(make_s(4))
      .add(make_t_gate(5))
      .add(make_phase(0, 0.12345678901234567))
      .add(make_rx(1, -1.5))
      .add(make_ry(2, 2.5))
      .add(make_rz(3, 0.001))
      .add(make_cx(0, 5))
      .add(make_cz(1, 4))
      .add(make_cphase(2, 3, 0.785398163397448))
      .add(make_swap(0, 5))
      .add(make_fused_phase(1, {2, 3, 4}, {0.5, 0.25, 0.125}))
      .add(make_unitary1(2, {0.6, 0, 0.8, 0, -0.8, 0, 0.6, 0}));
  Rng rng(13);
  c.add(make_unitary2(5, 1, random_unitary2_params(rng)));
  expect_same_gates(parse_circuit(circuit_to_text(c)), c);
}

TEST(Serialize, RoundTripsMultiControlledGates) {
  Circuit c(5);
  Gate mcz = make_z(0);
  mcz.controls = {1, 2, 3};
  Gate ccx = make_x(4);
  ccx.controls = {0, 2};
  c.add(mcz).add(ccx);
  expect_same_gates(parse_circuit(circuit_to_text(c)), c);
}

TEST(Serialize, RoundTripsQftBitExactly) {
  QftOptions opts;
  opts.fused_phases = true;
  const Circuit qft = build_qft(9, opts);
  const Circuit back = parse_circuit(circuit_to_text(qft));
  expect_same_gates(back, qft);

  // Belt and braces: the parsed circuit acts identically.
  StateVector a(9);
  StateVector b(9);
  Rng rng(4);
  a.init_random_state(rng);
  for (amp_index i = 0; i < a.num_amps(); ++i) {
    b.set_amplitude(i, a.amplitude(i));
  }
  a.apply(qft);
  b.apply(back);
  EXPECT_LT(a.max_amp_diff(b), 1e-15);
}

TEST(Serialize, RoundTripsRandomCircuits) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    const Circuit c = build_random(7, 100, rng);
    expect_same_gates(parse_circuit(circuit_to_text(c)), c);
  }
}

TEST(Serialize, ParsesCommentsAndBlanks) {
  const Circuit c = parse_circuit(
      "# a quantum circuit\n"
      "qubits 3\n"
      "\n"
      "h 0   # superpose\n"
      "cx 0 1\n"
      "   \n"
      "cx 1 2\n");
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.gate(0).kind, GateKind::kH);
}

TEST(Serialize, ParsesName) {
  const Circuit c = parse_circuit("qubits 2\nname bell\nh 0\ncx 0 1\n");
  EXPECT_EQ(c.name(), "bell");
}

TEST(Serialize, ErrorsCarryLineNumbers) {
  try {
    (void)parse_circuit("qubits 3\nh 0\nfrobnicate 1\n");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_circuit("h 0\n"), Error);            // no header
  EXPECT_THROW((void)parse_circuit("qubits 0\n"), Error);       // bad count
  EXPECT_THROW((void)parse_circuit("qubits 2\nh\n"), Error);    // no target
  EXPECT_THROW((void)parse_circuit("qubits 2\nh 5\n"), Error);  // range
  EXPECT_THROW((void)parse_circuit("qubits 2\ncp 0 1\n"), Error);  // angle
  EXPECT_THROW((void)parse_circuit("qubits 2\nqubits 2\n"), Error);
  EXPECT_THROW((void)parse_circuit("qubits 3\nfphase 0 | x\n"), Error);
  EXPECT_THROW((void)parse_circuit("qubits 3\nu1q 0 | 1 2 3\n"), Error);
  EXPECT_THROW((void)parse_circuit("qubits 3\nctrl | h 0\n"), Error);
}

TEST(Serialize, FileRoundTrip) {
  const test::ScratchDir scratch("serialize");
  const std::string path = scratch.file("qsv_roundtrip.qc");
  const Circuit c = build_ghz(4);
  save_circuit(path, c);
  expect_same_gates(load_circuit(path), c);
}

TEST(Serialize, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_circuit("/nonexistent/x.qc"), Error);
}

}  // namespace
}  // namespace qsv
