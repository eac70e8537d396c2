#include "machine/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/units.hpp"
#include "machine/archer2.hpp"
#include "machine/job.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

TEST(MachineConfig, OverridesSelectedKeys) {
  const MachineModel m = apply_machine_config(
      archer2(),
      "name = toy\n"
      "standard.memory_gib = 512\n"
      "standard.usable_gib = 500\n"
      "network.bw_blocking_gb_s = 15\n"
      "power.local.dynamic_w = 280\n");
  EXPECT_EQ(m.name, "toy");
  EXPECT_EQ(m.standard.memory_bytes, 512 * units::GiB);
  EXPECT_DOUBLE_EQ(m.network.bw_blocking_bytes_per_s, 15e9);
  EXPECT_DOUBLE_EQ(m.power.local.dynamic_w, 280);
  // Untouched keys keep the ARCHER2 calibration.
  EXPECT_DOUBLE_EQ(m.switches.power_w, 235.0);
  EXPECT_EQ(m.highmem.memory_bytes, archer2().highmem.memory_bytes);
}

TEST(MachineConfig, CommentsAndBlanksIgnored) {
  const MachineModel m = apply_machine_config(
      archer2(), "# comment only\n\n   \nswitches.power_w = 100 # inline\n");
  EXPECT_DOUBLE_EQ(m.switches.power_w, 100.0);
}

TEST(MachineConfig, UnknownKeyFailsWithLineNumber) {
  try {
    (void)apply_machine_config(archer2(), "name = x\nswtches.power = 1\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(MachineConfig, MalformedLineAndValueFail) {
  EXPECT_THROW((void)apply_machine_config(archer2(), "just words\n"), Error);
  EXPECT_THROW(
      (void)apply_machine_config(archer2(), "switches.power_w = lots\n"),
      Error);
}

TEST(MachineConfig, RenderRoundTripsEveryKey) {
  MachineModel a = archer2();
  a.name = "roundtrip";
  a.memory.numa_penalty[1] = 1.44;
  a.power.cpu_dvfs.high = 1.57;
  a.network.congestion_base_nodes = 128;
  a.highmem.available = 99;

  const MachineModel b =
      apply_machine_config(MachineModel{}, render_machine_config(a));
  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.standard.memory_bytes, a.standard.memory_bytes);
  EXPECT_EQ(b.highmem.available, 99);
  EXPECT_DOUBLE_EQ(b.memory.numa_penalty[1], 1.44);
  EXPECT_DOUBLE_EQ(b.power.cpu_dvfs.high, 1.57);
  EXPECT_EQ(b.network.congestion_base_nodes, 128);
  EXPECT_DOUBLE_EQ(b.network.bw_nonblocking_bytes_per_s,
                   a.network.bw_nonblocking_bytes_per_s);
  EXPECT_DOUBLE_EQ(b.power.stall.static_w, a.power.stall.static_w);
}

TEST(MachineConfig, LoadFromFile) {
  const test::ScratchDir scratch("machine_config");
  const std::string path = scratch.file("qsv_machine.cfg");
  {
    std::ofstream out(path);
    out << "standard.available = 100\n";
  }
  const MachineModel m = load_machine_config(archer2(), path);
  EXPECT_EQ(m.standard.available, 100);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_machine_config(archer2(), path), Error);
}

TEST(MachineConfig, ModifiedModelChangesJobPlanning) {
  // Doubling standard node memory halves the minimum node count at 44q.
  const MachineModel big = apply_machine_config(
      archer2(),
      "standard.memory_gib = 512\nstandard.usable_gib = 504\n");
  EXPECT_EQ(min_nodes(big, 44, NodeKind::kStandard),
            min_nodes(archer2(), 44, NodeKind::kStandard) / 2);
}

}  // namespace
}  // namespace qsv
