#include "dist/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "circuit/builders.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "perf/runner.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

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

/// The u32 at byte `offset` of a file.
std::uint32_t read_u32_at(const std::string& path, std::streamoff offset) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(offset);
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}

/// The payload CRC field of a v3 snapshot header.
std::uint32_t header_crc(const std::string& path) {
  return read_u32_at(path, 16);  // past magic, version, qubit count
}

/// Byte offset of the payload: the header's 24 bytes, then one slice CRC
/// per rank of the writer's width.
std::streamoff payload_offset(const std::string& path) {
  return 24 + 4 * static_cast<std::streamoff>(read_u32_at(path, 20));
}

/// Flips the lowest bit of the byte at `offset`.
void flip_byte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  char b = 0;
  f.seekg(offset);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x01);
  f.seekp(offset);
  f.write(&b, 1);
}

TEST(Snapshot, SingleEngineRoundTrip) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_single.qsv");
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
}

TEST(Snapshot, DistRoundTripAcrossRankCounts) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_dist.qsv");
  DistStateVector<SoaStorage> a(7, 4);
  a.apply(build_qft(7));
  save_state(path, a);

  // Restore into a differently-sharded register: snapshots are global.
  DistStateVector<SoaStorage> b(7, 16);
  load_state(path, b);
  for (amp_index i = 0; i < (amp_index{1} << 7); ++i) {
    EXPECT_EQ(a.amplitude(i), b.amplitude(i));
  }
}

TEST(Snapshot, CheckpointResumeMatchesStraightRun) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_resume.qsv");
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
}

TEST(Snapshot, HeaderInspection) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_header.qsv");
  StateVector sv(9);
  save_state(path, sv);
  EXPECT_EQ(snapshot_qubits(path), 9);
}

TEST(Snapshot, RejectsWrongRegisterSize) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_size.qsv");
  StateVector a(4);
  save_state(path, a);
  StateVector b(5);
  EXPECT_THROW(load_state(path, b), Error);
}

TEST(Snapshot, RejectsGarbageAndTruncation) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_bad.qsv");
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
}

TEST(Snapshot, MissingFileThrows) {
  StateVector sv(3);
  EXPECT_THROW(load_state("/does/not/exist.qsv", sv), Error);
  EXPECT_THROW((void)snapshot_qubits("/does/not/exist.qsv"), Error);
}

TEST(Snapshot, FlippedPayloadByteFailsCrc) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_crc.qsv");
  StateVector a(5);
  Rng rng(4);
  a.init_random_state(rng);
  save_state(path, a);

  // Flip one bit deep inside the amplitude block.
  flip_byte(path, payload_offset(path) + 100);
  StateVector b(5);
  try {
    load_state(path, b);
    FAIL() << "expected CRC mismatch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(Snapshot, WrongMagicRejected) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_magic.qsv");
  StateVector a(4);
  save_state(path, a);
  // A foreign magic, the retired pre-CRC v1 magic and the v2 magic, whose
  // header has no slice CRCs.
  for (const char* magic : {"XSVSNAP3", "QSVSNAP1", "QSVSNAP2"}) {
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
}

TEST(Snapshot, UnsupportedVersionRejected) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_version.qsv");
  StateVector a(4);
  // The retired v2 layout, and a version from the future.
  for (const std::uint32_t bad : {2u, 99u}) {
    save_state(path, a);
    {
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(8);
      f.write(reinterpret_cast<const char*>(&bad), sizeof bad);
    }
    StateVector b(4);
    EXPECT_THROW(load_state(path, b), Error) << "version " << bad;
  }
}

TEST(Snapshot, AtomicRenameLeavesNoTempAndSurvivesStaleTemp) {
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_atomic.qsv");
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

  // A second commit replaces the first, as a run's checkpoint file is
  // replaced at every interval, and leaves no .tmp holding the old one.
  StateVector c(4);
  c.init_random_state(rng);
  save_state(path, c);
  EXPECT_FALSE(std::ifstream(tmp).good());
  load_state(path, b);
  for (amp_index i = 0; i < c.num_amps(); ++i) {
    EXPECT_EQ(c.amplitude(i), b.amplitude(i));
  }
}

TEST(Snapshot, CommitNeverReplacesADirectory) {
  // A directory in the snapshot's place is an error, and it stays where
  // it is: the commit must not swap it out of the way. The failed write
  // leaves no temp file.
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_dir.qsv");
  std::filesystem::create_directory(path);
  StateVector a(4);
  EXPECT_THROW(save_state(path, a), Error);
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Snapshot, LoadRankSliceRestoresExactlyOneSlice) {
  // Spare-node substitution reads only the dead rank's contiguous span of
  // the global snapshot: the restored slice is bit-exact and no other
  // rank's amplitudes are touched.
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_rank_slice.qsv");
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
}

TEST(Snapshot, LoadRankSliceVerifiesTheSliceItReads) {
  // One flipped bit in rank 2's span: that slice's read fails its CRC, the
  // other slices still restore bit-exact, and a full restore fails the
  // payload CRC.
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_slice_crc.qsv");
  DistStateVector<SoaStorage> a(6, 4);
  a.apply(build_qft(6));
  save_state(path, a);
  const amp_index local = amp_index{1} << 4;
  flip_byte(path, payload_offset(path) +
                      static_cast<std::streamoff>(2 * local + 3) *
                          static_cast<std::streamoff>(kBytesPerAmp));

  DistStateVector<SoaStorage> b(6, 4);
  try {
    load_rank_slice(path, b, 2);
    FAIL() << "expected the slice CRC to catch the flip";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("slice 2 CRC mismatch"),
              std::string::npos)
        << e.what();
  }
  for (const rank_t r : {0, 1, 3}) {
    load_rank_slice(path, b, r);
  }
  for (amp_index i = 0; i < (amp_index{1} << 6); ++i) {
    if (i / local != 2) {
      EXPECT_EQ(b.amplitude(i), a.amplitude(i)) << "amplitude " << i;
    }
  }
  DistStateVector<SoaStorage> full(6, 4);
  EXPECT_THROW(load_state(path, full), Error);
}

TEST(Snapshot, DigestIsThePayloadCrcAtEveryWidth) {
  // state_digest, the CRC save_state writes into the header and a CRC fed
  // one amplitude at a time name one stream, at every rank count and after
  // a re-shard. 14 qubits span several 4096-amplitude blocks per slice at
  // one rank and a fraction of one at eight; every restore path must read
  // the file back to the same state.
  const test::ScratchDir scratch("snapshot");
  const std::string path = scratch.file("snap_digest.qsv");
  Rng rng(14);
  const Circuit c = build_rcs(14, 5, rng);
  auto check = [&](const DistStateVector<SoaStorage>& sv) {
    const std::uint32_t want = per_amplitude_crc(sv);
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", want);
    EXPECT_EQ(state_digest(sv), hex);
    save_state(path, sv);
    EXPECT_EQ(header_crc(path), want);
    // One CRC per slice of the writer's width, each over that slice's bytes
    // of the payload.
    EXPECT_EQ(read_u32_at(path, 20),
              static_cast<std::uint32_t>(sv.num_ranks()));
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const std::size_t slice_bytes =
        static_cast<std::size_t>(sv.local_amps() * kBytesPerAmp);
    const std::size_t payload =
        static_cast<std::size_t>(payload_offset(path));
    const std::size_t size =
        payload + slice_bytes * static_cast<std::size_t>(sv.num_ranks());
    EXPECT_EQ(bytes.size(), size);
    bytes.resize(size);  // a short file fails above, not out of bounds
    for (rank_t r = 0; r < sv.num_ranks(); ++r) {
      EXPECT_EQ(read_u32_at(path, 24 + 4 * r),
                crc32(bytes.data() + payload +
                          slice_bytes * static_cast<std::size_t>(r),
                      slice_bytes))
          << "slice " << r;
    }

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
  (void)shrunk.reshard(4, 3);
  ASSERT_EQ(shrunk.num_ranks(), 4);
  EXPECT_EQ(check(shrunk), first);
}

TEST(Snapshot, PayloadCrcIsTheOneThreadValueAtEveryLoopWidth) {
  // payload_crc checksums one range of global amplitudes per thread of the
  // loop width and joins the parts in order. At widths 3 and 4 it must give
  // the one-thread integer, at 1, 2 and 4 ranks, on a register below
  // kParallelMinAmps (one part) and one above it, where ranges of widths 3
  // and 4 start inside blocks and slices.
  const test::LoopWidthGuard width;
  for (const int n : {12, 17}) {
    ASSERT_EQ(amp_index{1} << n >= kParallelMinAmps, n == 17);
    Rng rng(static_cast<std::uint64_t>(n));
    const Circuit c = build_rcs(n, 2, rng);
    for (const int ranks : {1, 2, 4}) {
      DistStateVector<SoaStorage> sv(n, ranks);
      sv.apply(c);
      set_loop_width(1);
      const std::uint32_t want = payload_crc(sv);
      EXPECT_EQ(want, per_amplitude_crc(sv)) << n << " qubits, " << ranks
                                             << " ranks";
      for (const int w : {3, 4}) {
        set_loop_width(w);
        EXPECT_EQ(payload_crc(sv), want)
            << n << " qubits, " << ranks << " ranks, loop width " << w;
      }
    }
  }
}

}  // namespace
}  // namespace qsv
