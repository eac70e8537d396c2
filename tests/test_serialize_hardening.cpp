// Hostile-input hardening of the two serialization surfaces: circuit text
// (parse_circuit) and binary statevector snapshots (load_state). Truncated
// streams, CRC mismatches, absurd widths and gate counts must all surface
// as typed qsv::Error — never a crash, hang, or unbounded allocation —
// and the suite must run clean under the sanitizers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "circuit/serialize.hpp"
#include "common/error.hpp"
#include "dist/snapshot.hpp"
#include "sv/statevector.hpp"
#include "sv/storage.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

// ------------------------------------------------------- circuit text --

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)parse_circuit(text);
    FAIL() << "parse accepted: " << text.substr(0, 60);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(SerializeHardening, AbsurdRegisterWidths) {
  expect_parse_error("qubits 0\n", "bad qubit count");
  expect_parse_error("qubits -3\nh 0\n", "bad qubit count");
  expect_parse_error("qubits 63\nh 0\n", "bad qubit count");
  expect_parse_error("qubits 999999999\nh 0\n", "bad qubit count");
  expect_parse_error("qubits 99999999999999999999\nh 0\n", "bad qubit count");
  expect_parse_error("qubits banana\nh 0\n", "bad qubit count");
}

TEST(SerializeHardening, TruncatedAndMalformedStreams) {
  expect_parse_error("", "missing 'qubits' header");  // empty stream
  expect_parse_error("h 0\n", "before the 'qubits' header");
  expect_parse_error("qubits 2\nh\n", "missing");  // operand cut off
  expect_parse_error("qubits 2\nrz 0\n", "missing");  // angle cut off
  expect_parse_error("qubits 2\ncx 0\n", "missing");
  expect_parse_error("qubits 2\nu2q 0 1 | 1 0 0\n", "u2q");  // 3 of 32 reals
  expect_parse_error("qubits 2\nqubits 2\n", "duplicate");
  // Operands outside the declared register: a truncated/corrupted payload
  // must not index out of range.
  EXPECT_THROW((void)parse_circuit("qubits 2\ncx 0 5\n"), Error);
  EXPECT_THROW((void)parse_circuit("qubits 2\nh 7\n"), Error);
}

TEST(SerializeHardening, OutOfRangeOperandNamesItsLine) {
  // Refused by the parser, naming the input line, before a gate builder or
  // Circuit::add can raise a precondition that names a source file.
  expect_parse_error("qubits 2\nh 0\ncx 0 5\n",
                     "circuit parse error at line 3: qubit 5 outside");
  expect_parse_error("qubits 2\nh -1\n",
                     "circuit parse error at line 2: qubit -1 outside");
  expect_parse_error("qubits 3\nctrl 3 | x 0\n",
                     "circuit parse error at line 2: qubit 3 outside");
  expect_parse_error("qubits 3\nfphase 0 | 1:0.5 4:0.5\n",
                     "circuit parse error at line 2: qubit 4 outside");
}

TEST(SerializeHardening, RepeatedOperandNamesItsLine) {
  expect_parse_error("qubits 2\ncx 1 1\n",
                     "circuit parse error at line 2: qubit 1 named twice");
  expect_parse_error("qubits 3\nh 0\nswap 2 2\n",
                     "circuit parse error at line 3: qubit 2 named twice");
  expect_parse_error("qubits 3\nctrl 0 | cx 0 1\n",
                     "circuit parse error at line 2: qubit 0 named twice");
  expect_parse_error("qubits 3\nfphase 0 | 1:0.5 1:0.25\n",
                     "circuit parse error at line 2: qubit 1 named twice");
}

TEST(SerializeHardening, NonFiniteParametersRejected) {
  // However nan/inf/overflow sneaks in (stream rejection or the explicit
  // isfinite checks), the result is a typed parse error, not a NaN gate.
  EXPECT_THROW((void)parse_circuit("qubits 1\nrz 0 nan\n"), Error);
  EXPECT_THROW((void)parse_circuit("qubits 1\nrz 0 inf\n"), Error);
  EXPECT_THROW((void)parse_circuit("qubits 1\np 0 -inf\n"), Error);
  EXPECT_THROW((void)parse_circuit("qubits 1\nrz 0 1e999\n"), Error);
  expect_parse_error("qubits 2\nfphase 0 | 1:nan\n", "non-finite");
  expect_parse_error("qubits 2\nfphase 0 | 1:inf\n", "non-finite");
  std::string u1q = "qubits 1\nu1q 0 |";
  for (int i = 0; i < 8; ++i) u1q += i == 3 ? " inf" : " 0.5";
  EXPECT_THROW((void)parse_circuit(u1q + "\n"), Error);
}

TEST(SerializeHardening, GateCountBombIsCapped) {
  // ~4M one-gate lines trip the parser's hard cap with a typed error that
  // names the offending line, instead of allocating without bound.
  constexpr std::size_t kOverCap = (std::size_t{1} << 22) + 1;
  std::string bomb = "qubits 1\n";
  bomb.reserve(bomb.size() + kOverCap * 4);
  for (std::size_t i = 0; i < kOverCap; ++i) {
    bomb += "h 0\n";
  }
  expect_parse_error(bomb, "gate-count cap");
}

TEST(SerializeHardening, RoundTripStillWorksAfterHardening) {
  // The hardening must not break legitimate circuits (incl. parameterized
  // and multi-qubit gates near the operand bounds).
  const std::string text =
      "qubits 3\nh 0\nrz 1 0.25\ncx 0 2\ncp 1 2 1.5707963\nswap 0 1\n";
  const Circuit c = parse_circuit(text);
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(parse_circuit(circuit_to_text(c)).size(), c.size());
}

// --------------------------------------------------- binary snapshots --

class SnapshotHardening : public ::testing::Test {
 protected:
  void SetUp() override {
    BasicStateVector<SoaStorage> sv(3);
    save_state(path_, sv);
  }

  std::vector<char> read_bytes() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_bytes(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const test::ScratchDir scratch_{"hardening"};
  const std::string path_ = scratch_.file("hardening.snap");
};

TEST_F(SnapshotHardening, TruncatedPayloadIsTyped) {
  std::vector<char> bytes = read_bytes();
  bytes.resize(bytes.size() / 2);  // cut mid-amplitude
  write_bytes(bytes);
  BasicStateVector<SoaStorage> sv(3);
  EXPECT_THROW(load_state(path_, sv), Error);
}

TEST_F(SnapshotHardening, TruncatedHeaderIsTyped) {
  write_bytes({'Q', 'S', 'V'});
  BasicStateVector<SoaStorage> sv(3);
  EXPECT_THROW(load_state(path_, sv), Error);
  EXPECT_THROW((void)snapshot_qubits(path_), Error);
}

TEST_F(SnapshotHardening, PayloadCrcMismatchIsTyped) {
  std::vector<char> bytes = read_bytes();
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // flip one bit
  write_bytes(bytes);
  BasicStateVector<SoaStorage> sv(3);
  EXPECT_THROW(load_state(path_, sv), Error);
}

TEST_F(SnapshotHardening, WidthMismatchIsTyped) {
  BasicStateVector<SoaStorage> wrong(5);
  EXPECT_THROW(load_state(path_, wrong), Error);
}

TEST_F(SnapshotHardening, AbsurdRankWidthIsTyped) {
  // The rank width sizes the slice-CRC table: one that is not a power of
  // two, or wider than the register's 8 amplitudes, is refused before
  // anything is read or allocated for it.
  for (const std::uint32_t ranks : {0u, 3u, 16u, 0x80000000u}) {
    std::vector<char> bytes = read_bytes();
    std::memcpy(bytes.data() + 20, &ranks, sizeof ranks);
    write_bytes(bytes);
    BasicStateVector<SoaStorage> sv(3);
    EXPECT_THROW(load_state(path_, sv), Error) << ranks;
    EXPECT_THROW((void)snapshot_ranks(path_), Error) << ranks;
    save_state(path_, sv);
  }
}

TEST_F(SnapshotHardening, GarbageMagicIsTyped) {
  std::vector<char> bytes = read_bytes();
  bytes[0] = 'X';
  write_bytes(bytes);
  BasicStateVector<SoaStorage> sv(3);
  EXPECT_THROW(load_state(path_, sv), Error);
}

}  // namespace
}  // namespace qsv
