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

constexpr char kMagicV1[8] = {'Q', 'S', 'V', 'S', 'N', 'A', 'P', '1'};
constexpr char kMagicV2[8] = {'Q', 'S', 'V', 'S', 'N', 'A', 'P', '2'};

// v2 header layout after the magic: version, num_qubits, payload CRC-32,
// reserved. The CRC slot is patched once the payload has streamed out.
constexpr std::streamoff kCrcOffset = 8 + 2 * sizeof(std::uint32_t);

struct Header {
  int num_qubits = 0;
  bool has_crc = false;
  std::uint32_t crc = 0;
  /// Rank width the writer was split over; 0 = untagged (v1 files and v2
  /// files written before the reserved slot became the width tag).
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

  Header h;
  if (std::memcmp(magic.data(), kMagicV2, 8) == 0) {
    const std::uint32_t version = read_u32(in);
    QSV_REQUIRE(in.good() && version == kSnapshotFormatVersion,
                "unsupported snapshot format version " +
                    std::to_string(version) + ": " + path);
    const std::uint32_t n = read_u32(in);
    h.crc = read_u32(in);
    h.has_crc = true;
    h.ranks = static_cast<int>(read_u32(in));  // rank-width tag (0 = none)
    QSV_REQUIRE(in.good() && n >= 1 && n <= 62,
                "corrupt snapshot header: " + path);
    h.num_qubits = static_cast<int>(n);
  } else if (std::memcmp(magic.data(), kMagicV1, 8) == 0) {
    // Legacy v1: no version field, no CRC.
    const std::uint32_t n = read_u32(in);
    (void)read_u32(in);  // reserved
    QSV_REQUIRE(in.good() && n >= 1 && n <= 62,
                "corrupt snapshot header: " + path);
    h.num_qubits = static_cast<int>(n);
  } else {
    QSV_REQUIRE(false, "not a qsv snapshot: " + path);
  }
  return h;
}

template <class GetAmp>
void write_amps(std::ofstream& out, amp_index count, GetAmp get,
                Crc32& crc) {
  for (amp_index i = 0; i < count; ++i) {
    const cplx a = get(i);
    const real_t re = a.real();
    const real_t im = a.imag();
    out.write(reinterpret_cast<const char*>(&re), sizeof re);
    out.write(reinterpret_cast<const char*>(&im), sizeof im);
    crc.update(&re, sizeof re);
    crc.update(&im, sizeof im);
  }
}

template <class SetAmp>
void read_amps(std::ifstream& in, const std::string& path,
               const Header& header, amp_index count, SetAmp set) {
  Crc32 crc;
  for (amp_index i = 0; i < count; ++i) {
    real_t re = 0;
    real_t im = 0;
    in.read(reinterpret_cast<char*>(&re), sizeof re);
    in.read(reinterpret_cast<char*>(&im), sizeof im);
    QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
    crc.update(&re, sizeof re);
    crc.update(&im, sizeof im);
    set(i, cplx{re, im});
  }
  QSV_REQUIRE(!header.has_crc || crc.value() == header.crc,
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
template <class GetAmp>
void write_snapshot(const std::string& path, int num_qubits, int ranks,
                    amp_index count, GetAmp get) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out = open_out(tmp);
    out.write(kMagicV2, sizeof kMagicV2);
    write_u32(out, kSnapshotFormatVersion);
    write_u32(out, static_cast<std::uint32_t>(num_qubits));
    write_u32(out, 0);  // CRC placeholder
    write_u32(out, static_cast<std::uint32_t>(ranks));  // rank-width tag
    Crc32 crc;
    write_amps(out, count, get, crc);
    out.seekp(kCrcOffset);
    write_u32(out, crc.value());
    QSV_REQUIRE(out.good(), "short write while snapshotting: " + tmp);
  }
  QSV_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot commit snapshot " + tmp + " -> " + path);
}

}  // namespace

template <class S>
void save_state(const std::string& path, const BasicStateVector<S>& sv) {
  write_snapshot(path, sv.num_qubits(), /*ranks=*/1, sv.num_amps(),
                 [&](amp_index i) { return sv.amplitude(i); });
}

template <class S>
void save_state(const std::string& path, const DistStateVector<S>& sv) {
  write_snapshot(path, sv.num_qubits(), sv.num_ranks(),
                 amp_index{1} << sv.num_qubits(),
                 [&](amp_index i) { return sv.amplitude(i); });
}

template <class S>
void load_state(const std::string& path, BasicStateVector<S>& sv) {
  std::ifstream in = open_in(path);
  const Header h = read_header(in, path);
  QSV_REQUIRE(h.num_qubits == sv.num_qubits(),
              "snapshot holds " + std::to_string(h.num_qubits) +
                  " qubits, register has " + std::to_string(sv.num_qubits()));
  read_amps(in, path, h, sv.num_amps(),
            [&](amp_index i, cplx v) { sv.set_amplitude(i, v); });
}

template <class S>
void load_state(const std::string& path, DistStateVector<S>& sv) {
  std::ifstream in = open_in(path);
  const Header h = read_header(in, path);
  QSV_REQUIRE(h.num_qubits == sv.num_qubits(),
              "snapshot holds " + std::to_string(h.num_qubits) +
                  " qubits, register has " + std::to_string(sv.num_qubits()));
  read_amps(in, path, h, amp_index{1} << h.num_qubits,
            [&](amp_index i, cplx v) { sv.set_amplitude(i, v); });
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
  const Header h = read_header(in, path);
  QSV_REQUIRE(h.num_qubits == sv.num_qubits(),
              "snapshot holds " + std::to_string(h.num_qubits) +
                  " qubits, register has " + std::to_string(sv.num_qubits()));
  // Rank slices are only meaningful at the geometry they were written at:
  // after a shrink or grow-back, rank r's span of an old-width snapshot is
  // a different piece of the state than the caller means. Untagged legacy
  // files carry no width and are trusted.
  QSV_REQUIRE(h.ranks == 0 || h.ranks == sv.num_ranks(),
              "snapshot was written at " + std::to_string(h.ranks) +
                  " ranks but the register is split over " +
                  std::to_string(sv.num_ranks()) +
                  " (re-shard geometry mismatch): " + path);
  const std::streamoff payload = in.tellg();
  const amp_index n_local = sv.local_amps();
  const amp_index first = static_cast<amp_index>(r) * n_local;
  in.seekg(payload + static_cast<std::streamoff>(first * kBytesPerAmp));
  QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
  for (amp_index i = 0; i < n_local; ++i) {
    real_t re = 0;
    real_t im = 0;
    in.read(reinterpret_cast<char*>(&re), sizeof re);
    in.read(reinterpret_cast<char*>(&im), sizeof im);
    QSV_REQUIRE(in.good(), "snapshot truncated: " + path);
    sv.set_amplitude(first + i, cplx{re, im});
  }
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
  // Recover the rank-width tags of the adopted files from their headers, so
  // geometry checks work across job incarnations. A file that cannot be
  // read keeps width 0 (unknown) — the full-restore path will surface the
  // real error if it is ever used.
  widths_.assign(retained_.size(), 0);
  for (std::size_t k = 0; k < retained_.size(); ++k) {
    try {
      widths_[k] = snapshot_ranks(path_for(retained_[k]));
    } catch (const Error&) {
      widths_[k] = 0;
    }
  }
}

std::string CheckpointStore::path_for(std::uint64_t gates) const {
  return dir_ + "/ckpt-" + std::to_string(gates) + ".qsv";
}

void CheckpointStore::committed(std::uint64_t gates, int ranks) {
  for (std::size_t k = retained_.size(); k-- > 0;) {
    if (retained_[k] == gates) {
      retained_.erase(retained_.begin() + static_cast<std::ptrdiff_t>(k));
      widths_.erase(widths_.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  retained_.push_back(gates);
  widths_.push_back(ranks);
  while (static_cast<int>(retained_.size()) > keep_last_) {
    std::filesystem::remove(path_for(retained_.front()));
    retained_.erase(retained_.begin());
    widths_.erase(widths_.begin());
    ++pruned_;
  }
}

int CheckpointStore::width_of(std::uint64_t gates) const {
  for (std::size_t k = 0; k < retained_.size(); ++k) {
    if (retained_[k] == gates) {
      return widths_[k];
    }
  }
  return 0;
}

std::string CheckpointStore::latest() const {
  return retained_.empty() ? std::string{} : path_for(retained_.back());
}

void CheckpointStore::clear() {
  for (const std::uint64_t gates : retained_) {
    std::filesystem::remove(path_for(gates));
  }
  retained_.clear();
  widths_.clear();
}

template void save_state<SoaStorage>(const std::string&,
                                     const BasicStateVector<SoaStorage>&);
template void save_state<AosStorage>(const std::string&,
                                     const BasicStateVector<AosStorage>&);
template void save_state<SoaStorage>(const std::string&,
                                     const DistStateVector<SoaStorage>&);
template void load_state<SoaStorage>(const std::string&,
                                     BasicStateVector<SoaStorage>&);
template void load_state<AosStorage>(const std::string&,
                                     BasicStateVector<AosStorage>&);
template void load_state<SoaStorage>(const std::string&,
                                     DistStateVector<SoaStorage>&);
template void load_rank_slice<SoaStorage>(const std::string&,
                                          DistStateVector<SoaStorage>&,
                                          rank_t);

}  // namespace qsv
