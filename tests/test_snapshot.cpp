#include "dist/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "circuit/builders.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "perf/runner.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

std::string tmp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// CRC-32 of the state fed one double at a time in global amplitude order:
/// the digest's definition, written without the block streamer.
std::uint32_t per_amplitude_crc(const DistStateVector<SoaStorage>& sv) {
  Crc32 crc;
  for (amp_index g = 0; g < (amp_index{1} << sv.num_qubits()); ++g) {
    const cplx a = sv.amplitude(g);
    const real_t re = a.real();
    const real_t im = a.imag();
    crc.update(&re, sizeof re);
    crc.update(&im, sizeof im);
  }
  return crc.value();
}

/// The payload CRC field of a v2 snapshot header.
std::uint32_t header_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(16);  // magic, version, qubit count
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof crc);
  return crc;
}

TEST(Snapshot, SingleEngineRoundTrip) {
  const std::string path = tmp_path("snap_single.qsv");
  StateVector a(6);
  Rng rng(1);
  a.init_random_state(rng);
  save_state(path, a);

  StateVector b(6);
  load_state(path, b);
  // Bit-exact restore.
  for (amp_index i = 0; i < a.num_amps(); ++i) {
    EXPECT_EQ(a.amplitude(i), b.amplitude(i));
  }
  std::remove(path.c_str());
}

TEST(Snapshot, DistRoundTripAcrossRankCounts) {
  const std::string path = tmp_path("snap_dist.qsv");
  DistStateVector<SoaStorage> a(7, 4);
  a.apply(build_qft(7));
  save_state(path, a);

  // Restore into a differently-sharded register: snapshots are global.
  DistStateVector<SoaStorage> b(7, 16);
  load_state(path, b);
  for (amp_index i = 0; i < (amp_index{1} << 7); ++i) {
    EXPECT_EQ(a.amplitude(i), b.amplitude(i));
  }
  std::remove(path.c_str());
}

TEST(Snapshot, CheckpointResumeMatchesStraightRun) {
  const std::string path = tmp_path("snap_resume.qsv");
  Rng rng(3);
  const Circuit c = build_random(6, 80, rng);

  // Straight run.
  StateVector full(6);
  full.apply(c);

  // Run half, checkpoint, restore, run the rest.
  Circuit first(6);
  Circuit second(6);
  for (std::size_t i = 0; i < c.size(); ++i) {
    (i < c.size() / 2 ? first : second).add(c.gate(i));
  }
  StateVector part(6);
  part.apply(first);
  save_state(path, part);

  StateVector resumed(6);
  load_state(path, resumed);
  resumed.apply(second);
  EXPECT_LT(full.max_amp_diff(resumed), 1e-15);
  std::remove(path.c_str());
}

TEST(Snapshot, HeaderInspection) {
  const std::string path = tmp_path("snap_header.qsv");
  StateVector sv(9);
  save_state(path, sv);
  EXPECT_EQ(snapshot_qubits(path), 9);
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsWrongRegisterSize) {
  const std::string path = tmp_path("snap_size.qsv");
  StateVector a(4);
  save_state(path, a);
  StateVector b(5);
  EXPECT_THROW(load_state(path, b), Error);
  std::remove(path.c_str());
}

TEST(Snapshot, RejectsGarbageAndTruncation) {
  const std::string path = tmp_path("snap_bad.qsv");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a snapshot";
  }
  StateVector sv(3);
  EXPECT_THROW(load_state(path, sv), Error);

  // Valid header, truncated body.
  {
    StateVector big(5);
    save_state(path, big);
    std::ofstream out(path, std::ios::binary | std::ios::in);
    out.seekp(16 + 40);  // cut inside the amplitude block
  }
  // Rewrite as truncated copy.
  {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    data.resize(16 + 40);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  }
  StateVector sv5(5);
  EXPECT_THROW(load_state(path, sv5), Error);
  std::remove(path.c_str());
}

TEST(Snapshot, MissingFileThrows) {
  StateVector sv(3);
  EXPECT_THROW(load_state("/does/not/exist.qsv", sv), Error);
  EXPECT_THROW((void)snapshot_qubits("/does/not/exist.qsv"), Error);
}

TEST(Snapshot, FlippedPayloadByteFailsCrc) {
  const std::string path = tmp_path("snap_crc.qsv");
  StateVector a(5);
  Rng rng(4);
  a.init_random_state(rng);
  save_state(path, a);

  // Flip one bit deep inside the amplitude block.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24 + 100);  // past the 24-byte v2 header
    char b = 0;
    f.seekg(24 + 100);
    f.read(&b, 1);
    f.seekp(24 + 100);
    b = static_cast<char>(b ^ 0x01);
    f.write(&b, 1);
  }
  StateVector b(5);
  try {
    load_state(path, b);
    FAIL() << "expected CRC mismatch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Snapshot, WrongMagicRejected) {
  const std::string path = tmp_path("snap_magic.qsv");
  StateVector a(4);
  save_state(path, a);
  // A foreign magic, and the retired pre-CRC v1 magic.
  for (const char* magic : {"XSVSNAP2", "QSVSNAP1"}) {
    {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.write(magic, 8);
    }
    StateVector b(4);
    try {
      load_state(path, b);
      FAIL() << "expected " << magic << " to be refused";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("not a qsv snapshot"),
                std::string::npos)
          << magic;
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, UnsupportedVersionRejected) {
  const std::string path = tmp_path("snap_version.qsv");
  StateVector a(4);
  save_state(path, a);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const std::uint32_t bad = 99;
    f.write(reinterpret_cast<const char*>(&bad), sizeof bad);
  }
  StateVector b(4);
  EXPECT_THROW(load_state(path, b), Error);
  std::remove(path.c_str());
}

TEST(Snapshot, AtomicRenameLeavesNoTempAndSurvivesStaleTemp) {
  const std::string path = tmp_path("snap_atomic.qsv");
  const std::string tmp = path + ".tmp";

  // Simulate an interrupted earlier write: a stale, garbage .tmp file.
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "half-written garbage";
  }
  StateVector a(4);
  Rng rng(6);
  a.init_random_state(rng);
  save_state(path, a);

  // The commit replaced the stale temp and left no .tmp behind.
  EXPECT_FALSE(std::ifstream(tmp).good());
  StateVector b(4);
  load_state(path, b);
  for (amp_index i = 0; i < a.num_amps(); ++i) {
    EXPECT_EQ(a.amplitude(i), b.amplitude(i));
  }
  std::remove(path.c_str());
}

TEST(CheckpointStore, KeepsTheLastNAndPrunesTheRest) {
  const std::string dir = tmp_path("ckpt_rotation");
  CheckpointStore store(dir, 2);
  StateVector sv(3);
  Rng rng(4);
  sv.init_random_state(rng);
  for (const std::uint64_t gates : {0ull, 5ull, 10ull}) {
    save_state(store.path_for(gates), sv);
    store.committed(gates);
  }

  ASSERT_EQ(store.retained().size(), 2u);
  EXPECT_EQ(store.retained()[0], 5u);
  EXPECT_EQ(store.retained()[1], 10u);
  EXPECT_EQ(store.pruned(), 1u);
  EXPECT_EQ(store.latest(), store.path_for(10));
  // The rotated-out checkpoint is really gone from disk.
  EXPECT_FALSE(std::ifstream(store.path_for(0)).good());
  EXPECT_TRUE(std::ifstream(store.path_for(5)).good());
  store.clear();
  EXPECT_FALSE(std::ifstream(store.path_for(10)).good());
}

TEST(CheckpointStore, RemovesStaleTempsAndAdoptsCommittedFiles) {
  // A job killed mid-checkpoint leaves a .tmp (garbage by construction,
  // the rename never happened) next to its committed checkpoints. A new
  // incarnation must clean the former and resume the rotation on the
  // latter.
  const std::string dir = tmp_path("ckpt_adoption");
  std::filesystem::create_directories(dir);
  StateVector sv(3);
  Rng rng(5);
  sv.init_random_state(rng);
  save_state(dir + "/ckpt-3.qsv", sv);
  save_state(dir + "/ckpt-9.qsv", sv);
  {
    std::ofstream out(dir + "/ckpt-12.qsv.tmp", std::ios::binary);
    out << "half-written garbage";
  }
  {
    std::ofstream out(dir + "/notes.txt");
    out << "not a checkpoint";
  }

  CheckpointStore store(dir, 2);
  EXPECT_EQ(store.stale_tmps_removed(), 1u);
  EXPECT_FALSE(std::ifstream(dir + "/ckpt-12.qsv.tmp").good());
  ASSERT_EQ(store.retained().size(), 2u);
  EXPECT_EQ(store.retained()[0], 3u);
  EXPECT_EQ(store.retained()[1], 9u);
  EXPECT_EQ(store.latest(), store.path_for(9));

  // A tighter retention prunes adopted checkpoints oldest-first.
  CheckpointStore tight(dir, 1);
  ASSERT_EQ(tight.retained().size(), 1u);
  EXPECT_EQ(tight.retained()[0], 9u);
  EXPECT_EQ(tight.pruned(), 1u);
  EXPECT_FALSE(std::ifstream(store.path_for(3)).good());
}

TEST(CheckpointStore, RejectsZeroRetention) {
  EXPECT_THROW(CheckpointStore(tmp_path("ckpt_zero"), 0), Error);
}

TEST(Snapshot, LoadRankSliceRestoresExactlyOneSlice) {
  // Spare-node substitution reads only the dead rank's contiguous span of
  // the global snapshot: the restored slice is bit-exact and no other
  // rank's amplitudes are touched.
  const std::string path = tmp_path("snap_rank_slice.qsv");
  DistStateVector<SoaStorage> a(6, 4);
  a.apply(build_qft(6));
  save_state(path, a);

  DistStateVector<SoaStorage> b(6, 4);  // |0...0>
  load_rank_slice(path, b, 2);
  const amp_index local = amp_index{1} << 4;  // 64 amps over 4 ranks
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    if (i / local == 2) {
      EXPECT_EQ(b.amplitude(i), a.amplitude(i)) << "amplitude " << i;
    } else {
      // Untouched: still the basis state.
      EXPECT_EQ(b.amplitude(i), (i == 0 ? cplx{1, 0} : cplx{0, 0}))
          << "amplitude " << i;
    }
  }

  // Loading the remaining slices completes the full restore.
  for (const rank_t r : {0, 1, 3}) {
    load_rank_slice(path, b, r);
  }
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    EXPECT_EQ(b.amplitude(i), a.amplitude(i));
  }
  std::remove(path.c_str());
}

TEST(Snapshot, DigestIsThePayloadCrcAtEveryWidth) {
  // state_digest, the CRC save_state writes into the header and a CRC fed
  // one amplitude at a time name one stream, at every rank count and after
  // a re-shard. 14 qubits span several 4096-amplitude blocks per slice at
  // one rank and a fraction of one at eight; every restore path must read
  // the file back to the same state.
  const std::string path = tmp_path("snap_digest.qsv");
  Rng rng(14);
  const Circuit c = build_rcs(14, 5, rng);
  auto check = [&](const DistStateVector<SoaStorage>& sv) {
    const std::uint32_t want = per_amplitude_crc(sv);
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", want);
    EXPECT_EQ(state_digest(sv), hex);
    save_state(path, sv);
    EXPECT_EQ(header_crc(path), want);

    DistStateVector<SoaStorage> full(14, sv.num_ranks() == 8 ? 1 : 8);
    load_state(path, full);
    EXPECT_EQ(per_amplitude_crc(full), want);
    DistStateVector<SoaStorage> by_slice(14, sv.num_ranks());
    for (rank_t r = 0; r < sv.num_ranks(); ++r) {
      load_rank_slice(path, by_slice, r);
    }
    EXPECT_EQ(per_amplitude_crc(by_slice), want);
    return want;
  };
  std::uint32_t first = 0;
  for (const int ranks : {1, 2, 8}) {
    DistStateVector<SoaStorage> sv(14, ranks);
    sv.apply(c);
    const std::uint32_t crc = check(sv);
    if (ranks == 1) {
      first = crc;
    }
    EXPECT_EQ(crc, first) << ranks << " ranks";
  }
  DistStateVector<SoaStorage> shrunk(14, 8);
  shrunk.apply(c);
  (void)shrunk.shrink_to_half(3);
  ASSERT_EQ(shrunk.num_ranks(), 4);
  EXPECT_EQ(check(shrunk), first);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qsv
