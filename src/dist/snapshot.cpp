#include "dist/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace qsv {
namespace {

constexpr char kMagicV2[8] = {'Q', 'S', 'V', 'S', 'N', 'A', 'P', '2'};

// v2 header layout after the magic: version, num_qubits, payload CRC-32,
// rank width. The CRC slot is patched once the payload has streamed out.
constexpr std::streamoff kCrcOffset = 8 + 2 * sizeof(std::uint32_t);

struct Header {
  int num_qubits = 0;
  std::uint32_t crc = 0;
  /// Rank width the writer was split over.
  int ranks = 0;
};

void write_u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::ifstream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}

Header read_header(std::ifstream& in, const std::string& path) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  QSV_REQUIRE(in.good(), "not a qsv snapshot (short file): " + path);

  QSV_REQUIRE(std::memcmp(magic.data(), kMagicV2, 8) == 0,
              "not a qsv snapshot: " + path);
  const std::uint32_t version = read_u32(in);
  QSV_REQUIRE(in.good() && version == kSnapshotFormatVersion,
              "unsupported snapshot format version " +
                  std::to_string(version) + ": " + path);
  Header h;
  const std::uint32_t n = read_u32(in);
  h.crc = read_u32(in);
  h.ranks = static_cast<int>(read_u32(in));
  QSV_REQUIRE(in.good() && n >= 1 && n <= 62,
              "corrupt snapshot header: " + path);
  h.num_qubits = static_cast<int>(n);
  return h;
}

/// Amplitudes per block of the payload stream: each block is one write or
/// read and one Crc32::update (64 KiB).
constexpr amp_index kBlockAmps = amp_index{1} << 12;

// One storage's amplitudes [first, first + count) to and from the payload's
// interleaved (re, im) doubles.
void to_payload(const SoaStorage& s, amp_index first, amp_index count,
                real_t* out) {
  const real_t* re = s.re() + first;
  const real_t* im = s.im() + first;
  for (amp_index i = 0; i < count; ++i) {
    out[2 * i] = re[i];
    out[2 * i + 1] = im[i];
  }
}

void from_payload(SoaStorage& s, amp_index first, amp_index count,
                  const real_t* in) {
  real_t* re = s.re() + first;
  real_t* im = s.im() + first;
  for (amp_index i = 0; i < count; ++i) {
    re[i] = in[2 * i];
    im[i] = in[2 * i + 1];
  }
}

/// Streams the payload of a register held as equal consecutive slices
/// (global amplitude order) to `emit(bytes, size)`, one block at a time.
/// Slice sizes are powers of two, so no block straddles two slices.
template <class S, class Emit>
void stream_out(const std::vector<const S*>& slices, Emit emit) {
  const amp_index per_slice = slices.front()->size();
  const amp_index block = std::min(per_slice, kBlockAmps);
  std::vector<real_t> buf(static_cast<std::size_t>(2 * block));
  for (const S* s : slices) {
    for (amp_index first = 0; first < per_slice; first += block) {
      to_payload(*s, first, block, buf.data());
      emit(buf.data(), static_cast<std::size_t>(block * kBytesPerAmp));
    }
  }
}

/// The inverse of stream_out: `fill(bytes, size)` supplies each block of
/// the payload, which is then stored into the slices.
template <class S, class Fill>
void stream_in(const std::vector<S*>& slices, Fill fill) {
  const amp_index per_slice = slices.front()->size();
  const amp_index block = std::min(per_slice, kBlockAmps);
  std::vector<real_t> buf(static_cast<std::size_t>(2 * block));
  for (S* s : slices) {
    for (amp_index first = 0; first < per_slice; first += block) {
      fill(buf.data(), static_cast<std::size_t>(block * kBytesPerAmp));
      from_payload(*s, first, block, buf.data());
    }
  }
}

/// Rank slices of `sv` in rank order, const or mutable as `sv` is.
template <class SV>
auto slices_of(SV& sv) {
  std::vector<decltype(&sv.slice(0))> out;
  for (rank_t r = 0; r < sv.num_ranks(); ++r) {
    out.push_back(&sv.slice(r));
  }
  return out;
}

/// Reads the payload into `slices`, verifying the header CRC.
template <class S>
void read_payload(std::ifstream& in, const std::string& path,
                  const Header& header, const std::vector<S*>& slices) {
  Crc32 crc;
  stream_in(slices, [&](real_t* block, std::size_t bytes) {
    in.read(reinterpret_cast<char*>(block),
            static_cast<std::streamsize>(bytes));
    QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
    crc.update(block, bytes);
  });
  QSV_REQUIRE(crc.value() == header.crc,
              "snapshot payload CRC mismatch (corrupt): " + path);
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  QSV_REQUIRE(out.good(), "cannot open snapshot for writing: " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QSV_REQUIRE(in.good(), "cannot open snapshot: " + path);
  return in;
}

/// Writes the whole snapshot to `<path>.tmp` (patching the CRC slot once
/// the payload is known) and commits it with an atomic rename.
template <class S>
void write_snapshot(const std::string& path, int num_qubits, int ranks,
                    const std::vector<const S*>& slices) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out = open_out(tmp);
    out.write(kMagicV2, sizeof kMagicV2);
    write_u32(out, kSnapshotFormatVersion);
    write_u32(out, static_cast<std::uint32_t>(num_qubits));
    write_u32(out, 0);  // CRC placeholder
    write_u32(out, static_cast<std::uint32_t>(ranks));  // rank-width tag
    Crc32 crc;
    stream_out(slices, [&](const real_t* block, std::size_t bytes) {
      out.write(reinterpret_cast<const char*>(block),
                static_cast<std::streamsize>(bytes));
      crc.update(block, bytes);
    });
    out.seekp(kCrcOffset);
    write_u32(out, crc.value());
    QSV_REQUIRE(out.good(), "short write while snapshotting: " + tmp);
  }
  QSV_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot commit snapshot " + tmp + " -> " + path);
}

/// Reads the header and requires it to match a register of `num_qubits`.
Header read_header_for(std::ifstream& in, const std::string& path,
                       int num_qubits) {
  const Header h = read_header(in, path);
  QSV_REQUIRE(h.num_qubits == num_qubits,
              "snapshot holds " + std::to_string(h.num_qubits) +
                  " qubits, register has " + std::to_string(num_qubits));
  return h;
}

}  // namespace

template <class S>
void save_state(const std::string& path, const BasicStateVector<S>& sv) {
  write_snapshot(path, sv.num_qubits(), /*ranks=*/1,
                 std::vector<const S*>{&sv.storage()});
}

template <class S>
void save_state(const std::string& path, const DistStateVector<S>& sv) {
  write_snapshot(path, sv.num_qubits(), sv.num_ranks(), slices_of(sv));
}

template <class S>
std::uint32_t payload_crc(const DistStateVector<S>& sv) {
  Crc32 crc;
  stream_out(slices_of(sv), [&](const real_t* block, std::size_t bytes) {
    crc.update(block, bytes);
  });
  return crc.value();
}

template <class S>
void load_state(const std::string& path, BasicStateVector<S>& sv) {
  std::ifstream in = open_in(path);
  const Header h = read_header_for(in, path, sv.num_qubits());
  read_payload(in, path, h, std::vector<S*>{&sv.storage()});
}

template <class S>
void load_state(const std::string& path, DistStateVector<S>& sv) {
  std::ifstream in = open_in(path);
  const Header h = read_header_for(in, path, sv.num_qubits());
  read_payload(in, path, h, slices_of(sv));
}

int snapshot_qubits(const std::string& path) {
  std::ifstream in = open_in(path);
  return read_header(in, path).num_qubits;
}

int snapshot_ranks(const std::string& path) {
  std::ifstream in = open_in(path);
  return read_header(in, path).ranks;
}

template <class S>
void load_rank_slice(const std::string& path, DistStateVector<S>& sv,
                     rank_t r) {
  QSV_REQUIRE(r >= 0 && r < sv.num_ranks(), "rank out of range");
  std::ifstream in = open_in(path);
  const Header h = read_header_for(in, path, sv.num_qubits());
  // Rank slices are only meaningful at the geometry they were written at:
  // after a shrink or grow-back, rank r's span of an old-width snapshot is
  // a different piece of the state than the caller means.
  QSV_REQUIRE(h.ranks == sv.num_ranks(),
              "snapshot was written at " + std::to_string(h.ranks) +
                  " ranks but the register is split over " +
                  std::to_string(sv.num_ranks()) +
                  " (re-shard geometry mismatch): " + path);
  const std::streamoff payload = in.tellg();
  const amp_index first = static_cast<amp_index>(r) * sv.local_amps();
  in.seekg(payload + static_cast<std::streamoff>(first * kBytesPerAmp));
  QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
  stream_in(std::vector<S*>{&sv.slice(r)},
            [&](real_t* block, std::size_t bytes) {
              in.read(reinterpret_cast<char*>(block),
                      static_cast<std::streamsize>(bytes));
              QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
            });
}

CheckpointStore::CheckpointStore(std::string dir, int keep_last)
    : dir_(std::move(dir)), keep_last_(keep_last) {
  QSV_REQUIRE(keep_last_ >= 1, "checkpoint retention must keep at least one");
  namespace fs = std::filesystem;
  fs::create_directories(dir_);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // A writer died mid-checkpoint: the rename never happened, so the
      // partial file is garbage by construction.
      fs::remove(entry.path());
      ++stale_tmps_removed_;
      continue;
    }
    // Adopt committed checkpoints from a previous incarnation of the job.
    unsigned long long gates = 0;
    if (std::sscanf(name.c_str(), "ckpt-%llu.qsv", &gates) == 1 &&
        name == "ckpt-" + std::to_string(gates) + ".qsv") {
      retained_.push_back(static_cast<std::uint64_t>(gates));
    }
  }
  std::sort(retained_.begin(), retained_.end());
  while (static_cast<int>(retained_.size()) > keep_last_) {
    fs::remove(path_for(retained_.front()));
    retained_.erase(retained_.begin());
    ++pruned_;
  }
}

std::string CheckpointStore::path_for(std::uint64_t gates) const {
  return dir_ + "/ckpt-" + std::to_string(gates) + ".qsv";
}

void CheckpointStore::committed(std::uint64_t gates) {
  for (std::size_t k = retained_.size(); k-- > 0;) {
    if (retained_[k] == gates) {
      retained_.erase(retained_.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  retained_.push_back(gates);
  while (static_cast<int>(retained_.size()) > keep_last_) {
    std::filesystem::remove(path_for(retained_.front()));
    retained_.erase(retained_.begin());
    ++pruned_;
  }
}

std::string CheckpointStore::latest() const {
  return retained_.empty() ? std::string{} : path_for(retained_.back());
}

void CheckpointStore::clear() {
  for (const std::uint64_t gates : retained_) {
    std::filesystem::remove(path_for(gates));
  }
  retained_.clear();
}

template void save_state<SoaStorage>(const std::string&,
                                     const BasicStateVector<SoaStorage>&);
template void save_state<SoaStorage>(const std::string&,
                                     const DistStateVector<SoaStorage>&);
template void load_state<SoaStorage>(const std::string&,
                                     BasicStateVector<SoaStorage>&);
template void load_state<SoaStorage>(const std::string&,
                                     DistStateVector<SoaStorage>&);
template std::uint32_t payload_crc<SoaStorage>(
    const DistStateVector<SoaStorage>&);
template void load_rank_slice<SoaStorage>(const std::string&,
                                          DistStateVector<SoaStorage>&,
                                          rank_t);

}  // namespace qsv
